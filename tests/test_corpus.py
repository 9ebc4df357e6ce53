import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsreuse.corpus import (
    _MATCHED_FIELDS,
    _MAX_TS,
    _MIN_TS,
    LABEL_VALUES,
    MAX_COUNT,
    Article,
    canonical_source,
    ingest_articles,
    load_labels,
    load_lexicon,
    parse_timestamp,
    partition_windows,
    read_matched_articles,
    write_matched_articles,
)
from newsreuse.errors import DataError
from newsreuse.fixture import FixtureSpec, generate_fixture
from newsreuse.network import RepublishGraph, attach_labels

from helpers import BASE_TS, DAY, make_article, write_jsonl


def test_ingest_clean_jsonl(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": f"a{i}", "source": "ap", "body": "text", "published_utc": BASE_TS + i}
            for i in range(3)
        ],
    )
    collection = ingest_articles(path)
    assert len(collection) == 3
    assert collection.rejects == ()
    assert [a.id for a in collection] == ["a0", "a1", "a2"]


def test_ingest_missing_source_rejected(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "source": "ap", "body": "x", "published_utc": BASE_TS},
            {"id": "b", "source": "", "body": "x", "published_utc": BASE_TS},
            {"id": "c", "source": "pbs", "body": "x", "published_utc": BASE_TS},
        ],
    )
    collection = ingest_articles(path)
    assert len(collection) == 2
    assert len(collection.rejects) == 1
    assert collection.rejects[0].row == 2
    assert collection.rejects[0].reason == "missing source"


def test_ingest_full_span_accepted(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"source": "ap", "body": "x", "published_utc": "2017-04-07T00:10:00Z"},
            {"source": "pbs", "body": "x", "published_utc": "2017-05-20T12:00:00Z"},
            {"source": "cnn", "body": "x", "published_utc": "2017-07-13T23:50:00Z"},
        ],
    )
    collection = ingest_articles(path)
    assert len(collection) == 3
    times = [a.published_utc for a in collection]
    assert times == [1491523800, 1495281600, 1499989800]
    assert round((max(times) - min(times)) / DAY) == 98


def test_ingest_derived_ids_deterministic(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"source": "ap", "body": "x", "published_utc": BASE_TS, "url": "http://a"},
            {"source": "ap", "body": "y", "published_utc": BASE_TS, "url": "http://b"},
        ],
    )
    first = ingest_articles(path)
    second = ingest_articles(path)
    assert first == second
    assert all(a.id for a in first)
    assert len({a.id for a in first}) == 2


def test_ingest_duplicate_id_within_source_rejected(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": "x", "source": "ap", "body": "a", "published_utc": BASE_TS},
            {"id": "x", "source": "ap", "body": "b", "published_utc": BASE_TS + 1},
            {"id": "y", "source": "ap", "body": "c", "published_utc": BASE_TS},
        ],
    )
    collection = ingest_articles(path)
    assert [a.id for a in collection] == ["x", "y"]
    assert "duplicate id" in collection.rejects[0].reason


def test_ingest_duplicate_id_across_sources_kept_distinct(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": "x", "source": "ap", "body": "a", "published_utc": BASE_TS},
            {"id": "x", "source": "pbs", "body": "b", "published_utc": BASE_TS},
        ],
    )
    collection = ingest_articles(path)
    assert len(collection) == 2
    assert {a.id for a in collection} == {"x", "x@pbs"}


def test_ingest_majority_rejected_aborts(tmp_path):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "source": "ap", "body": "x", "published_utc": BASE_TS},
            {"id": "b", "source": "", "body": "x", "published_utc": BASE_TS},
            {"id": "c", "body": "x", "published_utc": BASE_TS},
        ],
    )
    with pytest.raises(DataError, match="rejected"):
        ingest_articles(path)


def test_ingest_unreadable_file():
    with pytest.raises(DataError, match="cannot read"):
        ingest_articles("/nonexistent/articles.jsonl")


def test_ingest_csv(tmp_path):
    path = tmp_path / "articles.csv"
    path.write_text(
        "id,source,title,body,published_utc,fb_shares\n"
        "a1,AP ,T1,body text,2017-04-07T00:00:00Z,10\n"
        "a2,pbs,T2,body text,1491523200,\n",
        encoding="utf-8",
    )
    collection = ingest_articles(path, format="csv")
    assert len(collection) == 2
    assert collection.articles[0].source == "ap"
    assert collection.articles[0].fb_shares == 10
    assert collection.articles[1].fb_shares is None


def test_ingest_csv_bad_header(tmp_path):
    path = tmp_path / "articles.csv"
    path.write_text("id,title\nx,y\n", encoding="utf-8")
    with pytest.raises(DataError, match="unparseable header"):
        ingest_articles(path, format="csv")


def test_ingest_bad_rows_collected(tmp_path):
    path = tmp_path / "articles.jsonl"
    records = [
        {"id": f"ok{i}", "source": "ap", "body": "x", "published_utc": BASE_TS}
        for i in range(6)
    ]
    write_jsonl(path, records)
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{not json}\n")
        fh.write('{"id": "t", "source": "ap", "body": "x", "published_utc": "soon"}\n')
        fh.write('{"id": "n", "source": "ap", "body": "x", "published_utc": 1, "fb_shares": -2}\n')
    collection = ingest_articles(path)
    assert len(collection) == 6
    reasons = [r.reason for r in collection.rejects]
    assert any("invalid JSON" in r for r in reasons)
    assert any("timestamp" in r for r in reasons)
    assert any("negative fb_shares" in r for r in reasons)


def test_parse_timestamp_formats():
    assert parse_timestamp("2017-04-07T00:00:00Z") == BASE_TS
    assert parse_timestamp("2017-04-07T02:00:00+02:00") == BASE_TS
    assert parse_timestamp("2017-04-07 00:00:00") == BASE_TS
    assert parse_timestamp(str(BASE_TS)) == BASE_TS
    assert parse_timestamp(BASE_TS) == BASE_TS
    with pytest.raises(ValueError):
        parse_timestamp("April 7th 2017")
    with pytest.raises(ValueError):
        parse_timestamp(1.5)
    assert parse_timestamp("0001-01-01T00:00:00Z") == -62135596800
    assert parse_timestamp("9999-12-31T23:59:59Z") == 253402300799
    with pytest.raises(ValueError, match="milliseconds"):
        parse_timestamp(BASE_TS * 1000)
    with pytest.raises(ValueError, match=r"out of range$"):
        parse_timestamp(BASE_TS * 10**6)
    with pytest.raises(ValueError, match=r"out of range$"):
        parse_timestamp("0001-01-01T00:00:00+01:00")


def test_canonical_source():
    assert canonical_source("  The  Daily   Caller ") == "the daily caller"


def _corpus(tmp_path, timestamps):
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": f"a{i}", "source": "ap", "body": "x", "published_utc": ts}
            for i, ts in enumerate(timestamps)
        ],
    )
    return ingest_articles(path)


def test_partition_98_day_corpus_seven_windows(tmp_path):
    collection = _corpus(
        tmp_path,
        [BASE_TS + 600, BASE_TS + 50 * DAY, BASE_TS + 97 * DAY + 23 * 3600],
    )
    windows = partition_windows(collection, window_days=14)
    assert [w.index for w in windows] == [0, 3, 6]
    assert windows[-1].index + 1 == 7
    assert windows[0].start_utc == BASE_TS


def test_partition_single_article(tmp_path):
    collection = _corpus(tmp_path, [BASE_TS + 3600])
    windows = partition_windows(collection)
    assert len(windows) == 1
    assert windows[0].articles == collection.articles


def test_partition_boundary_goes_to_later_window(tmp_path):
    collection = _corpus(tmp_path, [BASE_TS, BASE_TS + 14 * DAY])
    windows = partition_windows(collection, window_days=14)
    assert len(windows) == 2
    assert [a.id for a in windows[0].articles] == ["a0"]
    assert [a.id for a in windows[1].articles] == ["a1"]


def test_partition_tiles_without_gap_or_overlap(tmp_path):
    rng = random.Random(5)
    collection = _corpus(
        tmp_path, [BASE_TS + rng.randrange(90 * DAY) for _ in range(200)]
    )
    windows = partition_windows(collection, window_days=14)
    for earlier, later in zip(windows, windows[1:]):
        assert earlier.end_utc == later.start_utc
        assert earlier.end_utc - earlier.start_utc == 14 * DAY
    scattered = [a for w in windows for a in w.articles]
    assert sorted(a.id for a in scattered) == sorted(a.id for a in collection)
    for w in windows:
        for a in w.articles:
            assert w.start_utc <= a.published_utc < w.end_utc


def test_partition_empty_collection_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    collection = ingest_articles(path)
    with pytest.raises(DataError):
        partition_windows(collection)


def test_partition_rejects_bad_window_days(tmp_path):
    collection = _corpus(tmp_path, [BASE_TS])
    with pytest.raises(ValueError):
        partition_windows(collection, window_days=0)


def test_load_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "source,audience,reliability,leaning\n"
        "infowars,alternative,has_published_fake,right\n"
        "AP,mainstream,not_or_unknown,neutral_or_unknown\n",
        encoding="utf-8",
    )
    assert load_labels(path) == {
        "infowars": {
            "audience": "alternative", "reliability": "has_published_fake", "leaning": "right",
        },
        "ap": {
            "audience": "mainstream", "reliability": "not_or_unknown",
            "leaning": "neutral_or_unknown",
        },
    }


def test_load_labels_conflict_aborts(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "source,audience,reliability,leaning\n"
        "ap,mainstream,not_or_unknown,neutral_or_unknown\n"
        "ap,alternative,not_or_unknown,neutral_or_unknown\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="rows 2 and 3"):
        load_labels(path)


def test_load_labels_identical_duplicate_ok(tmp_path):
    path = tmp_path / "labels.csv"
    row = "ap,mainstream,not_or_unknown,neutral_or_unknown\n"
    path.write_text("source,audience,reliability,leaning\n" + row + row, encoding="utf-8")
    assert load_labels(path)["ap"]["audience"] == "mainstream"


def test_load_labels_bad_enum(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "source,audience,reliability,leaning\nap,blog,not_or_unknown,left\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="row 2: 'blog' is not a valid audience"):
        load_labels(path)


def test_fixture_labels_load_and_deal_the_table_in_order(tmp_path):
    spec = FixtureSpec(sources=7, articles_per_source=3, copies=2, windows=1)
    labels = load_labels(generate_fixture(tmp_path, spec)["labels"])
    assert len(labels) == 7
    rows = [tuple(rec.values()) for rec in labels.values()]
    assert rows[:3] == [
        ("mainstream", "not_or_unknown", "left"),
        ("alternative", "has_published_fake", "right"),
        ("satire_or_unknown", "satire", "neutral_or_unknown"),
    ]
    for i, row in enumerate(rows):
        assert row == tuple(values[i % len(values)] for values, _ in LABEL_VALUES.values())


def test_labels_default_to_unknown():
    graph = RepublishGraph(0)
    graph.add_node("Unheard Of")
    attach_labels(graph, {})
    assert graph.node_attrs("Unheard Of") == {
        "audience": "satire_or_unknown",
        "reliability": "not_or_unknown",
        "leaning": "neutral_or_unknown",
    }


def test_load_lexicon_dedupes_and_lowercases(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\nLies\nlies\n\ncorruption\n", encoding="utf-8")
    assert load_lexicon(path, "negative") == frozenset({"lies", "corruption"})


def test_load_lexicon_empty_errors(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_lexicon(path, "bias")


def _matched(count=6):
    return [
        make_article(f"id{i}", f"s{i % 3}", title=f"t {i}", ts=BASE_TS + i,
                     fb_shares=i if i % 2 else None)
        for i in range(count)
    ]


def _matched_lines(tmp_path, articles):
    path = tmp_path / "matched_articles.jsonl"
    write_matched_articles(path, articles)
    return path, path.read_text(encoding="utf-8").splitlines()


def _write(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


# Any character, lone surrogates included, with the awkward ones made common.
_TITLE_CHARS = st.characters(exclude_categories=()) | st.sampled_from(
    ["\x00", "\r", "\n", '"', "\\", "/", "\x7f", "\u00e9", "\u2028", "\U0001f4f0", "\ud800"]
)
_COUNTS = st.none() | st.sampled_from([0, MAX_COUNT]) | st.integers(0, MAX_COUNT)


@given(
    id=st.text(_TITLE_CHARS, min_size=1, max_size=8),
    source=st.text(_TITLE_CHARS, min_size=1, max_size=8),
    title=st.text(_TITLE_CHARS, max_size=20),
    published_utc=st.sampled_from([_MIN_TS, _MAX_TS]) | st.integers(_MIN_TS, _MAX_TS),
    fb_shares=_COUNTS,
    fb_reactions=_COUNTS,
)
@example(id="a", source="s", title='x\x00y\r\n"\\ \u00e9 \U0001f4f0', published_utc=_MIN_TS,
         fb_shares=None, fb_reactions=MAX_COUNT)
@example(id="\ud800", source="\u2028", title="", published_utc=_MAX_TS, fb_shares=0,
         fb_reactions=None)
@settings(max_examples=300, deadline=None)
def test_matched_line_is_json_dumps_of_the_record(**fields):
    article = Article(**fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matched_articles.jsonl"
        write_matched_articles(path, [article])
        written = path.read_bytes()
    want = json.dumps({key: getattr(article, key) for key in _MATCHED_FIELDS})
    assert written == f"{want}\n".encode("ascii")


_BAD_LINE = {
    "not-json": lambda line: line[:-1],
    "missing-key": lambda line: json.dumps(
        {k: v for k, v in json.loads(line).items() if k != "source"}),
    "wrong-type": lambda line: json.dumps({**json.loads(line), "published_utc": "soon"}),
}


@pytest.mark.parametrize("blank", [False, True], ids=["packed", "blank-lines"])
@pytest.mark.parametrize("index", [0, 3, 5])
@pytest.mark.parametrize("damage", list(_BAD_LINE))
def test_bad_matched_line_is_named(tmp_path, damage, index, blank):
    """A bad line N is reported as line N, blank lines counted."""
    path, lines = _matched_lines(tmp_path, _matched())
    bad = lines[index] = _BAD_LINE[damage](lines[index])
    if blank:
        lines = ["", *lines[:2], "", *lines[2:]]
    _write(path, lines)
    message = "bad value" if damage == "wrong-type" else "not a matched-article record"
    with pytest.raises(DataError, match=f"line {lines.index(bad) + 1}: {message}"):
        read_matched_articles(path)


def test_first_bad_line_is_named(tmp_path):
    """A bad value on line 2 is named before a line 5 that is not JSON."""
    path, lines = _matched_lines(tmp_path, _matched())
    lines[1] = _BAD_LINE["wrong-type"](lines[1])
    lines[4] = _BAD_LINE["not-json"](lines[4])
    _write(path, lines)
    with pytest.raises(DataError, match="line 2: bad value"):
        read_matched_articles(path)


def test_repeated_matched_id_names_both_lines(tmp_path):
    path, lines = _matched_lines(tmp_path, _matched())
    lines.insert(4, json.dumps({**json.loads(lines[1]), "title": "another"}))
    _write(path, lines)
    with pytest.raises(DataError, match="lines 2 and 5: two records of id 'id1'"):
        read_matched_articles(path)
