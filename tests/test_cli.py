import concurrent.futures
import csv
import json
import multiprocessing
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import fields
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsreuse import cli, network
from newsreuse.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    build_config,
    load_config_file,
    main,
)

from newsreuse.corpus import (
    MAX_COUNT,
    BodySpool,
    TimeWindow,
    file_sha256,
    ingest_articles,
    load_lexicon,
    partition_windows,
    read_matched_articles,
    read_pairs_csv,
    write_lines,
)
from newsreuse.fixture import FixtureSpec, generate_fixture

from helpers import BASE_TS, write_jsonl


def _run(*argv):
    return main(list(argv))


def _gen(tmp_path, **kwargs):
    args = ["gen-fixture", "--out", str(tmp_path / "fx")]
    defaults = {"sources": 6, "articles-per-source": 10, "copies": 5, "windows": 2}
    defaults.update(kwargs)
    for key, value in defaults.items():
        args += [f"--{key}", str(value)]
    assert _run(*args) == EXIT_OK
    return tmp_path / "fx"


def test_gen_fixture_writes_inputs(tmp_path, capsys):
    fx = _gen(tmp_path)
    for name in (
        "articles.jsonl", "labels.csv", "bias.txt", "positive.txt",
        "negative.txt", "stopwords.txt", "ground_truth.csv", "fixture.cfg",
    ):
        assert (fx / name).is_file(), name
    assert str(fx / "fixture.cfg") in capsys.readouterr().out


def test_gen_fixture_deterministic(tmp_path):
    a = _gen(tmp_path / "a", seed=99)
    b = _gen(tmp_path / "b", seed=99)
    assert (a / "articles.jsonl").read_bytes() == (b / "articles.jsonl").read_bytes()
    c = _gen(tmp_path / "c", seed=100)
    assert (a / "articles.jsonl").read_bytes() != (c / "articles.jsonl").read_bytes()
    # Every FixtureSpec field is a flag, under the names the benchmark passes.
    spec = FixtureSpec(
        sources=7, articles_per_source=11, copies=6, window_days=5, windows=3, seed=101
    )
    assert all(getattr(spec, f.name) != f.default for f in fields(FixtureSpec))
    d = tmp_path / "d" / "fx"
    assert _run(
        "gen-fixture", "--out", str(d), "--sources", "7", "--articles-per-source", "11",
        "--copies", "6", "--window-days", "5", "--windows", "3", "--seed", "101",
    ) == EXIT_OK
    written = _tree(d)
    shutil.rmtree(d)
    generate_fixture(d, spec)
    assert _tree(d) == written


def test_detect_recovers_ground_truth(tmp_path):
    fx = _gen(tmp_path)
    out = tmp_path / "out"
    assert _run("detect", "--config", str(fx / "fixture.cfg"), "--out", str(out)) == EXIT_OK
    with (fx / "ground_truth.csv").open() as fh:
        truth = {
            frozenset((r["original_id"], r["copy_id"])) for r in csv.DictReader(fh)
        }
    with (out / "pairs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    got = {frozenset((r["earlier_id"], r["later_id"])) for r in rows}
    assert got == truth
    assert all(float(r["similarity"]) > 0.9 for r in rows)
    summary = dict(
        line.split("=", 1)
        for line in (out / "detect_summary.txt").read_text().splitlines()
    )
    assert int(summary["matched_pairs"]) == len(truth)
    assert (out / "windows.csv").is_file()
    assert (out / "rejects.csv").is_file()


def test_unknown_flag_is_usage_error():
    assert _run("detect", "--no-such-flag") == EXIT_USAGE


def test_missing_articles_is_usage_error(tmp_path):
    assert _run("detect", "--out", str(tmp_path / "out")) == EXIT_USAGE


@pytest.mark.parametrize(
    "key",
    ["articles", "labels", "bias_lexicon", "positive_lexicon", "negative_lexicon", "stopwords"],
)
def test_nonexistent_articles_is_usage_error(tmp_path, capsys, key):
    articles = tmp_path / "articles.jsonl"
    articles.write_text("", encoding="utf-8")
    paths = {"articles": str(articles), key: str(tmp_path / "nope.txt")}
    argv = [f"--{name.replace('_', '-')}={path}" for name, path in paths.items()]
    assert _run("detect", *argv, "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert f"{key} file not found" in capsys.readouterr().err


def test_bad_threshold_is_usage_error(tmp_path):
    fx = _gen(tmp_path)
    code = _run(
        "detect", "--config", str(fx / "fixture.cfg"),
        "--similarity-threshold", "1.5", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("resolution", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_louvain_resolution_is_usage_error(tmp_path, capsys, resolution):
    fx = _gen(tmp_path)
    code = _run(
        "graph", "--config", str(fx / "fixture.cfg"),
        f"--louvain-resolution={resolution}", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE
    assert "louvain_resolution must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--window-days", "0", "window_days must be >= 1"),
        ("--min-body-tokens", "-1", "min_body_tokens must be >= 0"),
        ("--jobs", "0", "jobs must be >= 1"),
        ("--min-window-docs", "-1", "min_window_docs must be >= 0"),
        ("--title-change-threshold", "0", "title_change_threshold must be in (0, 1]"),
        ("--title-change-threshold", "1.5", "title_change_threshold must be in (0, 1]"),
        ("--similarity-threshold", "0", "similarity_threshold must be in (0, 1)"),
    ],
)
def test_numeric_bound_is_usage_error(tmp_path, capsys, flag, value, message):
    assert _run("report", "--out", str(tmp_path / "out"), flag, value) == EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err


def test_threshold_of_one_is_usage_error(tmp_path, capsys):
    fx = _gen(tmp_path)
    code = _run(
        "detect", "--config", str(fx / "fixture.cfg"),
        "--similarity-threshold", "1.0", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE
    assert "must be in (0, 1)" in capsys.readouterr().err


def test_millisecond_timestamp_is_rejected_row(tmp_path):
    fx = _gen(tmp_path)
    clean = fx / "articles.jsonl"
    text = clean.read_text(encoding="utf-8")
    bad = {"id": "ms", "source": "late", "body": "x", "published_utc": BASE_TS * 1000}
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(text + json.dumps(bad) + "\n", encoding="utf-8")
    for name, path in (("clean", clean), ("dirty", dirty)):
        code = _run(
            "detect", "--config", str(fx / "fixture.cfg"), "--articles", str(path),
            "--out", str(tmp_path / name),
        )
        assert code == EXIT_OK
    with (tmp_path / "dirty" / "rejects.csv").open() as fh:
        rejects = list(csv.DictReader(fh))
    assert [r["row"] for r in rejects] == [str(text.count("\n") + 1)]
    assert "milliseconds?" in rejects[0]["reason"]
    windows = [(tmp_path / n / "windows.csv").read_bytes() for n in ("clean", "dirty")]
    assert windows[0] == windows[1]


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, newsreuse.cli, newsreuse.headlines; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_handoff_and_network_import_no_numpy_or_scipy():
    # Nor xml.sax, whose saxutils imports urllib.request and http.client.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, newsreuse.corpus, newsreuse.network; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')"
         " or m.startswith('xml.sax')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # detect imports the pool only when it forks workers.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, newsreuse.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
         " or m == 'concurrent.futures.process'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_console_entry_freezes_collection_then_runs_main(monkeypatch):
    # The installed command freezes what the imports left before a stage
    # runs; main itself, which tests call in-process, does not.
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_OK)
    assert cli.console_main() == EXIT_OK
    assert calls == ["freeze", "main"]
    # The one table, read without tomllib, which Python 3.10 lacks.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    lines = [line for line in table.splitlines() if line.strip() and not line.startswith("#")]
    scripts = {key.strip(): json.loads(value) for key, value in
               (line.split("=", 1) for line in lines)}
    assert scripts == {"newsreuse": "newsreuse.cli:console_main"}


@pytest.mark.parametrize(
    "line, reason",
    [
        (b'{"source": "x\xff", "body": "b", "published_utc": 1491523200}', "not valid UTF-8"),
        (b"[" * 100000, "invalid JSON: maximum recursion depth"),
        (b'{"source": "x", "body": "b", "published_utc": ' + b"1" * 5000 + b"}",
         "invalid JSON: Exceeds the limit"),
        (b'{"id": "y", "source": "\\ud800", "body": "b", "published_utc": 1491523200}',
         "not valid UTF-8: lone surrogate escape"),
    ],
    ids=["undecodable_byte", "deep_nesting", "long_integer", "lone_surrogate_escape"],
)
def test_unreadable_jsonl_line_is_rejected_row(tmp_path, line, reason):
    fx = _gen(tmp_path)
    text = (fx / "articles.jsonl").read_bytes()
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_bytes(text + line + b"\n")
    out = tmp_path / "out"
    code = _run("detect", "--config", str(fx / "fixture.cfg"), "--articles", str(dirty),
                "--out", str(out))
    assert code == EXIT_OK
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        rejects = list(csv.DictReader(fh))
    assert [r["row"] for r in rejects] == [str(text.count(b"\n") + 1)]
    assert rejects[0]["reason"].startswith(reason)


def _csv_corpus(path, extra_line: bytes) -> None:
    rows = b"".join(
        b"a%d,s%d,alpha beta gamma %d,%d\n" % (i, i % 3, i, BASE_TS + 60 * i) for i in range(4)
    )
    path.write_bytes(b"id,source,body,published_utc\n" + rows + extra_line)


def test_oversized_csv_field_is_data_error(tmp_path, caplog):
    articles = tmp_path / "articles.csv"
    _csv_corpus(articles, b'z,x,"' + b"a" * 131073 + b'",1491523200\n')
    code = _run("detect", "--articles", str(articles), "--format", "csv",
                "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert any("line 6: malformed CSV" in r.message for r in caplog.records)


def test_undecodable_csv_byte_is_rejected_row(tmp_path):
    articles = tmp_path / "articles.csv"
    _csv_corpus(articles, b"z,x\xff,body,1491523200\n")
    out = tmp_path / "out"
    code = _run("detect", "--articles", str(articles), "--format", "csv", "--out", str(out))
    assert code == EXIT_OK
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["row", "reason"], ["6", "not valid UTF-8"]]


def _bom_rows():
    return [
        {"id": f"b{i}", "source": f"src{i % 4}", "title": f"Story {i}",
         "body": _BODY if i < 3 else f"unrelated words number {i} " * 6,
         "published_utc": BASE_TS + 3600 * i}
        for i in range(10)
    ]


def _assert_bom_corpus_ingested(out):
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["row", "reason"]]
    summary = (out / "detect_summary.txt").read_text(encoding="utf-8")
    assert "articles=10\n" in summary
    with (out / "pairs.csv").open(encoding="utf-8") as fh:
        pairs = list(csv.DictReader(fh))
    assert {(r["earlier_id"], r["later_id"]) for r in pairs} == {
        ("b0", "b1"), ("b0", "b2"), ("b1", "b2")
    }


def test_bom_prefixed_jsonl_keeps_every_row(tmp_path):
    articles = tmp_path / "articles.jsonl"
    write_jsonl(articles, _bom_rows())
    articles.write_bytes(b"\xef\xbb\xbf" + articles.read_bytes())
    out = tmp_path / "out"
    assert _run("detect", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    _assert_bom_corpus_ingested(out)


def test_bom_prefixed_csv_keeps_given_ids(tmp_path):
    articles = tmp_path / "articles.csv"
    fields = ["id", "source", "title", "body", "published_utc"]
    with articles.open("w", encoding="utf-8-sig", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_bom_rows())
    assert articles.read_bytes().startswith(b"\xef\xbb\xbfid,")
    out = tmp_path / "out"
    code = _run("detect", "--articles", str(articles), "--format", "csv", "--out", str(out))
    assert code == EXIT_OK
    _assert_bom_corpus_ingested(out)


def test_window_ending_in_year_10000_is_data_error(tmp_path, caplog):
    articles = tmp_path / "articles.jsonl"
    write_jsonl(articles, [{"id": "last", "source": "s", "body": "b",
                            "published_utc": 253402300799}])
    out = tmp_path / "out"
    assert _run("detect", "--articles", str(articles), "--out", str(out)) == EXIT_DATA
    assert not (out / "pairs.csv").exists()
    assert any(
        "253402300799" in r.message and "window_days=14" in r.message
        for r in caplog.records
    )


_BODY = "alpha beta gamma delta epsilon zeta eta theta " * 3
_GOOD_ROWS = [
    {"id": f"g{i}", "source": f"src{i}", "title": f"Story {i}",
     "body": _BODY if i < 2 else f"unrelated words number {i} " * 6,
     "published_utc": BASE_TS + 3600 * i}
    for i in range(4)
]
_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=12)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
_field = _text | _json_values
_records = st.fixed_dictionaries(
    {},
    optional={
        "id": _field, "source": _field, "title": _field, "author": _field, "url": _field,
        "fb_shares": _field, "fb_reactions": _field,
        "body": st.just(_BODY) | _field,
        "published_utc": st.integers(BASE_TS - 86400, BASE_TS + 86400) | _field,
    },
)
# Copies of a good row's body under arbitrary names, so that they are matched
# and written to pairs.csv.
_copies = st.fixed_dictionaries(
    {"id": _text, "source": _text, "body": st.just(_BODY),
     "published_utc": st.integers(BASE_TS, BASE_TS + 86400)},
)
_lines = st.one_of(
    st.builds(json.dumps, _copies | _records | _json_values, ensure_ascii=st.booleans()).map(
        lambda text: text.encode("utf-8", "surrogatepass")
    ),
    st.binary(max_size=80),
    st.integers(1, 100000).map(lambda depth: b"[" * depth),
    st.integers(1, 5000).map(
        lambda depth: b'{"source": "x", "published_utc": 1491523200, "body": '
        + b"[" * depth + b"]" * depth + b"}"
    ),
).map(lambda line: line.replace(b"\n", b"").replace(b"\r", b""))


@given(_lines)
@settings(max_examples=150, deadline=None)
def test_any_appended_line_is_accepted_or_rejected(line):
    with tempfile.TemporaryDirectory() as tmp:
        articles = Path(tmp, "articles.jsonl")
        write_jsonl(articles, _GOOD_ROWS)
        with articles.open("ab") as fh:
            fh.write(line + b"\n")
        out = Path(tmp, "out")
        code = _run("detect", "--articles", str(articles), "--out", str(out))
        assert code in (EXIT_OK, EXIT_DATA)
        if code != EXIT_OK:
            return
        summary = dict(
            row.split("=", 1) for row in (out / "detect_summary.txt").read_text().splitlines()
        )
        with (out / "rejects.csv").open(encoding="utf-8") as fh:
            rejected = [r["row"] for r in csv.DictReader(fh)]
    accepted = int(summary["articles"]) == len(_GOOD_ROWS) + 1
    blank = not line.decode("utf-8", "surrogateescape").strip()
    assert rejected == ([] if accepted or blank else [str(len(_GOOD_ROWS) + 1)])


def test_empty_corpus_is_data_error(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = _run("detect", "--articles", str(empty), "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA


def test_graph_single_pair(tmp_path):
    articles = tmp_path / "articles.jsonl"
    body = "alpha beta gamma delta " * 10
    write_jsonl(
        articles,
        [
            {"id": "orig", "source": "wire", "body": body, "title": "T",
             "published_utc": BASE_TS, "fb_shares": 10},
            {"id": "copy", "source": "blog", "body": body, "title": "T",
             "published_utc": BASE_TS + 3600, "fb_shares": 30},
        ],
    )
    out = tmp_path / "out"
    assert _run("detect", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert _run("graph", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    combined = (out / "graphs" / "combined.graphml").read_text(encoding="utf-8")
    assert combined.count("<node") == 2
    assert combined.count("<edge") == 1
    assert (out / "graphs" / "window_000.dot").is_file()
    with (out / "metrics.csv").open() as fh:
        metrics = {r["source"]: r for r in csv.DictReader(fh)}
    assert metrics["wire"]["weighted_in"] == "1"
    assert metrics["blog"]["weighted_out"] == "1"


def test_control_character_in_source_is_rejected_row(tmp_path):
    """XML 1.0 forbids most control characters, and a source is a GraphML
    node id: such a row is a reject, and every graph written parses."""
    articles = tmp_path / "articles.jsonl"
    body = "alpha beta gamma delta " * 10
    sources = ["wire", "alpha\u0001news", "blog", "gamma\u0000x", "daily"]
    write_jsonl(
        articles,
        [
            {"id": f"a{i}", "source": source, "body": body, "published_utc": BASE_TS + 60 * i}
            for i, source in enumerate(sources)
        ],
    )
    out = tmp_path / "out"
    assert _run("detect", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert _run("graph", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    graphml = sorted((out / "graphs").glob("*.graphml"))
    assert [p.name for p in graphml] == ["combined.graphml", "window_000.graphml"]
    for path in graphml:
        root = ET.parse(path).getroot()
        ids = {node.get("id") for node in root.iter("{http://graphml.graphdrawing.org/xmlns}node")}
        assert ids == {"wire", "blog", "daily"}
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        rejects = list(csv.DictReader(fh))
    assert [(r["row"], r["reason"]) for r in rejects] == [
        ("2", "source holds a control character"),
        ("4", "source holds a control character"),
    ]


def test_renamed_id_already_taken_is_rejected_row(tmp_path):
    """A second source's `x` is renamed `x@b`; when an earlier row already
    holds `x@b`, the renamed row is a reject, so ids stay unique and graph
    and headlines accept what detect wrote."""
    first, second = "alpha beta gamma delta " * 10, "kappa lambda mu nu " * 10
    articles = tmp_path / "articles.jsonl"
    write_jsonl(
        articles,
        [
            {"id": article_id, "source": source, "body": body, "title": f"Title {i}",
             "published_utc": BASE_TS + 60 * i}
            for i, (article_id, source, body) in enumerate(
                [("x", "a", first), ("x@b", "c", second), ("x", "b", first),
                 ("y", "d", second)]
            )
        ],
    )
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines"):
        assert _run(command, "--articles", str(articles), "--out", str(out)) == EXIT_OK
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        rejects = list(csv.DictReader(fh))
    assert [(r["row"], r["reason"]) for r in rejects] == [("3", "id 'x@b' already taken")]
    with (out / "pairs.csv").open(encoding="utf-8") as fh:
        pairs = [(r["earlier_id"], r["later_id"]) for r in csv.DictReader(fh)]
    assert pairs == [("x@b", "y")]


def test_count_past_a_doubles_exact_range_is_rejected_row(tmp_path):
    """A count a double cannot hold exactly is a reject; the largest one it
    can hold reaches engagement.csv unrounded."""
    body = "alpha beta gamma delta " * 10
    articles = tmp_path / "articles.jsonl"
    articles.write_text(
        "".join(
            f'{{"id": "a{i}", "source": "{source}", "body": "{body}", '
            f'"published_utc": {BASE_TS + 60 * i}, "fb_shares": {shares}}}\n'
            for i, (source, shares) in enumerate(
                [("wire", MAX_COUNT), ("blog", "1" + "0" * 400), ("daily", MAX_COUNT + 1),
                 ("news", 3)]
            )
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines", "report"):
        assert _run(command, "--articles", str(articles), "--out", str(out)) == EXIT_OK
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        rejects = list(csv.DictReader(fh))
    assert [(r["row"], r["reason"]) for r in rejects] == [
        ("2", "fb_shares out of range"), ("3", "fb_shares out of range")
    ]
    with (out / "engagement.csv").open(encoding="utf-8") as fh:
        shares = {r["source"]: r["median_fb_shares"] for r in csv.DictReader(fh)}
    assert shares == {"news": "3.0", "wire": repr(float(MAX_COUNT))}
    assert float(MAX_COUNT) == MAX_COUNT


@pytest.mark.parametrize("over", [0, 1], ids=["at-limit", "over-limit"])
def test_id_or_source_past_csv_field_limit_is_rejected_row(tmp_path, over):
    """pairs.csv holds ids and sources, and metrics.csv sources, which the
    stages after detect read back with the CSV parser."""
    length = csv.field_size_limit() + over
    body = "alpha beta gamma delta " * 10
    rows = [
        {"id": "i" * length, "source": "wire", "body": body},
        {"id": "b", "source": "s" * length, "body": body},
        {"id": "c", "source": "blog", "body": body},
        {"id": "d", "source": "daily", "body": body},
        {"id": "e", "source": "news", "body": body},
    ]
    articles = tmp_path / "articles.jsonl"
    write_jsonl(articles, [{**r, "published_utc": BASE_TS + 60 * i} for i, r in enumerate(rows)])
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines", "report"):
        assert _run(command, "--articles", str(articles), "--out", str(out)) == EXIT_OK
    with (out / "rejects.csv").open(encoding="utf-8") as fh:
        rejects = [(r["row"], r["reason"]) for r in csv.DictReader(fh)]
    with (out / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        sources = [r["source"] for r in csv.DictReader(fh)]
    if over:
        assert rejects == [("1", "id longer than the CSV field limit"),
                           ("2", "source longer than the CSV field limit")]
        assert sources == ["blog", "daily", "news"]
    else:
        assert rejects == []
        assert sources == ["blog", "daily", "news", "s" * length, "wire"]


def test_graph_without_labels_warns_but_writes(tmp_path, caplog):
    fx = _gen(tmp_path)
    out = tmp_path / "out"
    articles = str(fx / "articles.jsonl")
    assert _run("detect", "--articles", articles, "--out", str(out)) == EXIT_OK
    assert _run("graph", "--articles", articles, "--out", str(out)) == EXIT_OK
    assert any("no labels file" in r.message for r in caplog.records)
    combined = (out / "graphs" / "combined.graphml").read_text(encoding="utf-8")
    assert "audience" not in combined
    assert (out / "metrics.csv").is_file()


def test_graph_before_detect_is_data_error(tmp_path):
    fx = _gen(tmp_path)
    code = _run(
        "graph", "--config", str(fx / "fixture.cfg"), "--out", str(tmp_path / "fresh")
    )
    assert code == EXIT_DATA


def test_headlines_outputs(tmp_path):
    fx = _gen(tmp_path, **{"articles-per-source": 30, "copies": 20})
    out = tmp_path / "out"
    cfg = str(fx / "fixture.cfg")
    assert _run("detect", "--config", cfg, "--out", str(out)) == EXIT_OK
    assert _run("headlines", "--config", cfg, "--out", str(out)) == EXIT_OK
    for name in (
        "title_pairs.csv", "shifts.csv", "ranking_most_changed.csv",
        "ranking_change_magnitude.csv", "headline_summary.txt",
    ):
        assert (out / name).is_file(), name
    with (out / "title_pairs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    with (fx / "ground_truth.csv").open() as fh:
        truth = {r["copy_id"]: r["title_changed"] for r in csv.DictReader(fh)}
    for row in rows:
        assert row["changed"] == truth[row["later_id"]]


def test_headlines_without_titles(tmp_path):
    articles = tmp_path / "articles.jsonl"
    body = "alpha beta gamma delta " * 10
    write_jsonl(
        articles,
        [
            {"id": "a", "source": "wire", "body": body, "published_utc": BASE_TS},
            {"id": "b", "source": "blog", "body": body, "published_utc": BASE_TS + 60},
        ],
    )
    out = tmp_path / "out"
    assert _run("detect", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert _run("headlines", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    summary = (out / "headline_summary.txt").read_text(encoding="utf-8")
    assert "eligible_pairs=0" in summary
    assert "No eligible title pairs" in summary


def test_report_requires_upstream(tmp_path, caplog):
    out = tmp_path / "out"
    out.mkdir()
    assert _run("report", "--out", str(out)) == EXIT_DATA
    assert any("newsreuse detect" in r.message for r in caplog.records)


def test_full_pipeline_report_and_determinism(tmp_path):
    fx = _gen(tmp_path, **{"articles-per-source": 20, "copies": 12})
    cfg = str(fx / "fixture.cfg")

    def pipeline(out, jobs):
        for command in ("detect", "graph", "headlines", "report"):
            code = _run(command, "--config", cfg, "--out", str(out), "--jobs", str(jobs))
            assert code == EXIT_OK, command

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    pipeline(out1, jobs=1)
    pipeline(out2, jobs=2)

    report = (out1 / "report.md").read_text(encoding="utf-8")
    for section in (
        "## 1. Configuration", "## 2. Detection", "## 3. Network",
        "## 4. Headlines", "## 5. Review flags",
    ):
        assert section in report

    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    # Rerunning report in place leaves it byte-identical.
    before = (out1 / "report.md").read_bytes()
    assert _run("report", "--config", cfg, "--out", str(out1)) == EXIT_OK
    assert (out1 / "report.md").read_bytes() == before


def test_graph_mode_flags(tmp_path):
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    out = tmp_path / "out"
    assert _run("detect", "--config", cfg, "--out", str(out)) == EXIT_OK
    assert _run("graph", "--config", cfg, "--out", str(out),
                "--dedupe-origin", "--include-ambiguous") == EXIT_OK
    summary = dict(
        line.split("=", 1)
        for line in (out / "graph_summary.txt").read_text().splitlines()
    )
    assert summary["dedupe_origin"] == "true"
    assert summary["include_ambiguous"] == "true"


def test_graph_computes_betweenness_once_per_graph(tmp_path, monkeypatch):
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    out = tmp_path / "out"
    assert _run("detect", "--config", cfg, "--out", str(out)) == EXIT_OK
    with (out / "windows.csv").open() as fh:
        window_count = len(list(csv.DictReader(fh)))
    calls = Counter()
    original = network.betweenness

    def counting(graph, **kwargs):
        calls[graph.window_index] += 1
        return original(graph, **kwargs)

    monkeypatch.setattr(network, "betweenness", counting)
    assert _run("graph", "--config", cfg, "--out", str(out)) == EXIT_OK
    assert window_count >= 2
    assert len(calls) == window_count + 1
    assert set(calls.values()) == {1}
    assert calls[network.COMBINED] == 1


def test_graph_and_headlines_do_not_read_windows_csv(upstream, tmp_path):
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    (out / "windows.csv").unlink()
    for command in ("graph", "headlines"):
        assert _run(command, "--config", str(config), "--out", str(out)) == EXIT_OK
    assert _tree(out) == {k: v for k, v in _tree(clean).items() if k != "windows.csv"}


def _story(tag, copies):
    """Articles sharing one body, one per (source, hours after BASE_TS)."""
    body = " ".join(f"{tag}{i}" for i in range(40))
    return [
        {"id": f"{tag}-{source}", "source": source, "body": body,
         "published_utc": BASE_TS + 3600 * hours}
        for source, hours in copies
    ]


def test_windows_without_pairs_get_no_graph(tmp_path, monkeypatch):
    """Pairs in windows 0 and 3 of 4: two window graphs and the combined one
    are scored, and metrics.csv holds the mean and variance of each source's
    series over all 4 windows, with zeros where it has no graph."""
    day = 24
    rows = [
        # window 0: s3 -> s2 -> s1
        *_story("a", [("s1", 0), ("s2", 1)]),
        *_story("b", [("s2", 2), ("s3", 3)]),
        # window 1: an article without a copy; window 2: nothing
        *_story("lone", [("s1", 15 * day)]),
        # window 3: s3 -> s1 -> s4
        *_story("c", [("s1", 43 * day), ("s3", 43 * day + 1)]),
        *_story("d", [("s4", 44 * day), ("s1", 44 * day + 1)]),
    ]
    articles = tmp_path / "articles.jsonl"
    write_jsonl(articles, rows)
    out = tmp_path / "out"
    assert _run("detect", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert "windows=4\n" in (out / "detect_summary.txt").read_text(encoding="utf-8")
    calls = []
    original = network.betweenness

    def counting(graph):
        calls.append(graph.window_index)
        return original(graph)

    monkeypatch.setattr(network, "betweenness", counting)
    assert _run("graph", "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert sorted(calls, key=str) == [0, 3, network.COMBINED]
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    per_window = {}
    for index in (0, 3):
        root = ET.parse(out / "graphs" / f"window_{index:03d}.graphml").getroot()
        names = {key.get("id"): key.get("attr.name") for key in root.findall("g:key", ns)}
        per_window[index] = {
            node.get("id"): {names[d.get("key")]: d.text for d in node.findall("g:data", ns)}
            for node in root.findall("g:graph/g:node", ns)
        }
    assert per_window[0]["s2"]["betweenness"] == per_window[3]["s1"]["betweenness"] == "1.0"
    with (out / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        metrics = {row["source"]: row for row in csv.DictReader(fh)}
    assert sorted(metrics) == ["s1", "s2", "s3", "s4"]
    for source, row in metrics.items():
        for prefix, name in (("in_centrality", "in_degree_centrality"),
                             ("betweenness", "betweenness")):
            series = [
                float(per_window[i][source][name])
                if i in per_window and source in per_window[i] else 0.0
                for i in range(4)
            ]
            assert row[f"{prefix}_mean"] == repr(statistics.fmean(series))
            assert row[f"{prefix}_var"] == repr(statistics.pvariance(series))


def test_graph_rejects_mismatched_windowing(tmp_path):
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    out = tmp_path / "out"
    assert _run("detect", "--config", cfg, "--out", str(out)) == EXIT_OK
    code = _run("graph", "--config", cfg, "--out", str(out), "--window-days", "100")
    assert code == EXIT_DATA


def _edit_csv_rows(path, edit):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_csv_cell(path, column, value, row=1):
    """Set one cell of a CSV file; row 0 is the header."""

    def edit(rows):
        rows[row][column if isinstance(column, int) else rows[0].index(column)] = value

    _edit_csv_rows(path, edit)


def _self_pair(path):
    """Make the first pair's later article its earlier one."""

    def edit(rows):
        rows[1][3:5] = rows[1][1:3]

    _edit_csv_rows(path, edit)


def _swapped_pair(path):
    """Swap the first pair's earlier and later columns, source and id."""

    def edit(rows):
        rows[1][1:3], rows[1][3:5] = rows[1][3:5], rows[1][1:3]

    _edit_csv_rows(path, edit)


def _relabelled_pair(path):
    """Relabel the first pair, a forward one, ambiguous."""

    def edit(rows):
        column = rows[0].index("direction")
        assert rows[1][column] == "forward"
        rows[1][column] = "ambiguous"

    _edit_csv_rows(path, edit)


def _dropped_summary_key(name, key):
    """A damage that drops `key=` from the summary file `name`, then records
    the new sha256 of detect_summary.txt in the graph and headlines
    summaries, so that report takes the files for one run."""

    def damage(out):
        _edit_summary(out, f"{key}=", None, name)
        record = f"{cli.DETECT_SUMMARY_SHA256}={file_sha256(out / 'detect_summary.txt')}"
        for summary in ("graph_summary.txt", "headline_summary.txt"):
            _edit_summary(out, f"{cli.DETECT_SUMMARY_SHA256}=", record, summary)

    return damage


def _truncated_pair(path):
    """Cut the first pair's row after later_id, so both ids stay."""

    def edit(rows):
        del rows[1][5:]

    _edit_csv_rows(path, edit)


def _long_pair(path):
    """Add a field to the end of the first pair's row."""

    def edit(rows):
        rows[1].append("forward")

    _edit_csv_rows(path, edit)


def _repeated_pair(path):
    """Append a copy of the last pair's row."""

    def edit(rows):
        rows.append(list(rows[-1]))

    _edit_csv_rows(path, edit)


def _short_row(path):
    """Cut the first data row to two fields."""

    def edit(rows):
        del rows[1][2:]

    _edit_csv_rows(path, edit)


def _oversized_labels(out):
    """A labels file beside `out` whose one source name is past the CSV
    parser's 131072-character field limit."""
    labels = out.parent / "labels.csv"
    labels.write_text(
        "source,audience,reliability,leaning\n" + "x" * 200_000 + ",mainstream,satire,left\n",
        encoding="utf-8",
    )
    return ["--labels", str(labels)]


def _matched_line_2(edit):
    """A damage that replaces line 2 of matched_articles.jsonl with
    `edit(record)`."""

    def damage(out):
        path = out / "matched_articles.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = edit(json.loads(lines[1]))
        path.write_text("\n".join(lines), encoding="utf-8")

    return damage


def _repeated_matched_id(out):
    """Append a copy of line 1 of matched_articles.jsonl with another title."""
    path = out / "matched_articles.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["title"] += " again"
    lines.append(json.dumps(record))
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


_BAD_MATCHED = {
    "not-json": lambda record: "{not json",
    "missing-key": lambda record: json.dumps({k: v for k, v in record.items() if k != "title"}),
    "string-count": lambda record: json.dumps({**record, "fb_shares": "7"}),
    "far-future": lambda record: json.dumps({**record, "published_utc": 10**13}),
    "huge-count": lambda record: json.dumps({**record, "fb_shares": MAX_COUNT + 1}),
}


@pytest.fixture(scope="module")
def upstream(tmp_path_factory):
    """A fixture corpus and the outputs of detect, graph and headlines."""
    root = tmp_path_factory.mktemp("upstream")
    fx = _gen(root)
    out = root / "out"
    for command in ("detect", "graph", "headlines"):
        assert _run(command, "--config", str(fx / "fixture.cfg"), "--out", str(out)) == EXIT_OK
    return fx / "fixture.cfg", out


@pytest.mark.parametrize(
    "stage, damage, message",
    [
        ("graph", lambda out: _edit_csv_cell(out / "pairs.csv", "similarity", "high"),
         "pairs.csv row 2"),
        ("headlines", lambda out: _edit_csv_cell(out / "pairs.csv", "similarity", "high"),
         "pairs.csv row 2"),
        ("graph", lambda out: _edit_csv_cell(out / "pairs.csv", "similarity", "nan"),
         "pairs.csv row 2"),
        ("graph", lambda out: _edit_csv_cell(out / "pairs.csv", "window_index", "w0"),
         "pairs.csv row 2"),
        ("graph", lambda out: _edit_csv_cell(out / "pairs.csv", "window_index", "999"),
         "pairs.csv row 2: window 999"),
        ("graph", lambda out: _self_pair(out / "pairs.csv"), "pairs.csv row 2"),
        ("headlines", lambda out: _edit_csv_cell(out / "pairs.csv", "later_source", "x"),
         "pairs.csv row 2: sources disagree"),
        ("report", lambda out: _edit_csv_cell(out / "metrics.csv", "weighted_in", "1.5"),
         "malformed upstream output"),
        ("report", lambda out: _edit_csv_cell(out / "windows.csv", 3, "documents", row=0),
         "malformed upstream output"),
        ("report", lambda out: _short_row(out / "windows.csv"), "malformed upstream output"),
        ("report", lambda out: _edit_csv_cell(out / "engagement.csv", 0, "x" * 200_000),
         "malformed upstream output"),
        ("graph", lambda out: _edit_csv_cell(out / "pairs.csv", "later_id", "x" * 200_000),
         "pairs.csv line 2: malformed CSV"),
        ("headlines", lambda out: _edit_csv_cell(out / "pairs.csv", "later_id", "x" * 200_000),
         "pairs.csv line 2: malformed CSV"),
        ("graph", _oversized_labels, "labels.csv line 2: malformed CSV"),
        *[
            (stage, lambda out, edit=edit: edit(out / "pairs.csv"), "pairs.csv row 2")
            for edit in (_swapped_pair, _relabelled_pair)
            for stage in ("graph", "headlines")
        ],
        *[
            (stage, lambda out, edit=edit: edit(out / "pairs.csv"),
             "pairs.csv row 2: field count is not the header's")
            for edit in (_truncated_pair, _long_pair)
            for stage in ("graph", "headlines")
        ],
        ("report", _dropped_summary_key("graph_summary.txt", "communities"),
         "malformed upstream output"),
        ("report", _dropped_summary_key("detect_summary.txt", "matched_pairs"),
         "malformed upstream output"),
        *[
            (stage, _matched_line_2(edit), "matched_articles.jsonl line 2")
            for stage in ("graph", "headlines")
            for edit in _BAD_MATCHED.values()
        ],
        *[
            (stage, _repeated_matched_id, "matched_articles.jsonl lines 1 and ")
            for stage in ("graph", "headlines")
        ],
        *[
            (stage, lambda out: _repeated_pair(out / "pairs.csv"), "repeats the pair of row ")
            for stage in ("graph", "headlines")
        ],
    ],
    ids=["graph-similarity", "headlines-similarity", "nan-similarity", "window-index",
         "stray-window", "self-pair", "sources-disagree",
         "metrics-weighted-in", "windows-header", "windows-short-row", "oversized-field",
         "graph-oversized-pairs", "headlines-oversized-pairs", "graph-oversized-labels",
         "graph-swapped-pair", "headlines-swapped-pair",
         "graph-relabelled-pair", "headlines-relabelled-pair",
         "graph-truncated-pair", "headlines-truncated-pair",
         "graph-long-pair", "headlines-long-pair",
         "report-no-communities", "report-no-matched-pairs",
         *[f"{stage}-matched-{name}" for stage in ("graph", "headlines") for name in _BAD_MATCHED],
         "graph-repeated-id", "headlines-repeated-id",
         "graph-repeated-pair", "headlines-repeated-pair"],
)
def test_malformed_upstream_file_is_data_error(
    upstream, tmp_path, caplog, stage, damage, message
):
    """`damage` spoils a file and returns any flags that point the stage at it."""
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    extra = damage(out) or []
    assert _run(stage, "--config", str(config), "--out", str(out), *extra) == EXIT_DATA
    assert any(message in r.getMessage() for r in caplog.records)


def _edited_title(tmp_path, fx, out):
    """A copy of the corpus with one title byte changed."""
    corpus = tmp_path / "articles.jsonl"
    data = (fx / "articles.jsonl").read_bytes()
    at = data.index(b'"title": "') + len(b'"title": "')
    corpus.write_bytes(data[:at] + (b"Z" if data[at:at + 1] == b"Y" else b"Y") + data[at + 1:])
    return ["--articles", str(corpus)]


def _drop_run_record(tmp_path, fx, out):
    """detect_summary.txt as a detect without a run record wrote it."""
    summary = out / "detect_summary.txt"
    lines = summary.read_text(encoding="utf-8").splitlines(keepends=True)
    summary.write_text(
        "".join(line for line in lines if not line.startswith(("format=", "corpus_sha256="))),
        encoding="utf-8",
    )
    return []


def _edit_summary(out, prefix, replacement, name="detect_summary.txt"):
    """Replace the line of summary file `name` that starts with `prefix`, or
    drop it when `replacement` is None."""
    summary = out / name
    lines = [
        replacement if line.startswith(prefix) else line
        for line in summary.read_text(encoding="utf-8").splitlines()
    ]
    summary.write_text("".join(f"{line}\n" for line in lines if line is not None),
                       encoding="utf-8")
    return []


@pytest.mark.parametrize("stage", ["graph", "headlines"])
@pytest.mark.parametrize(
    "change, message",
    [
        (_edited_title, "corpus_sha256 is "),
        (lambda tmp_path, fx, out: ["--similarity-threshold", "0.8"],
         "similarity_threshold is 0.8, but detect ran with similarity_threshold=0.9"),
        (lambda tmp_path, fx, out: (out / "matched_articles.jsonl").unlink() or [],
         "matched_articles.jsonl not found"),
        (_drop_run_record, "detect_summary.txt records no format"),
        (lambda tmp_path, fx, out: _edit_summary(out, "windows=", None),
         "detect_summary.txt records no windows"),
        (lambda tmp_path, fx, out: _edit_summary(out, "windows=", "windows=four"),
         "detect_summary.txt records no windows"),
    ],
    ids=["edited-title", "threshold", "missing-hand-off", "no-run-record", "no-windows",
         "bad-windows"],
)
def test_downstream_refuses_another_runs_outputs(
    upstream, tmp_path, caplog, stage, change, message
):
    """graph and headlines refuse detect outputs from another corpus or
    config, or without the hand-off and run record, and write nothing."""
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    extra = change(tmp_path, config.parent, out)
    before = _tree(out)
    assert _run(stage, "--config", str(config), "--out", str(out), *extra) == EXIT_DATA
    assert any(
        message in r.getMessage() and "re-run detect" in r.getMessage() for r in caplog.records
    )
    assert _tree(out) == before


def _tree(root):
    """Every path under `root`: a file's bytes, None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


_RERUN_DETECT = ("detect", "--similarity-threshold", "0.999", "--window-days", "7")
_RERUN_GRAPH = ("graph", "--similarity-threshold", "0.999", "--window-days", "7")


def _strip_summary_record(out):
    path = out / "headline_summary.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(
        "".join(line for line in lines if not line.startswith("detect_summary_sha256=")),
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "reruns, edit, stale, message",
    [
        ([_RERUN_DETECT], None, "graph", "came from another detect run than"),
        ([_RERUN_DETECT, _RERUN_GRAPH], None, "headlines", "came from another detect run than"),
        ([], _strip_summary_record, "headlines", "records no detect_summary_sha256"),
    ],
    ids=["detect-again", "detect-and-graph-again", "no-record"],
)
def test_report_refuses_outputs_of_another_detect_run(
    upstream, tmp_path, caplog, reruns, edit, stale, message
):
    """report refuses graph and headlines outputs that were not made from
    the detect_summary.txt beside them, naming the stage to re-run."""
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    for argv in reruns:
        assert _run(*argv, "--config", str(config), "--out", str(out)) == EXIT_OK
    if edit is not None:
        edit(out)
    before = _tree(out)
    assert _run("report", "--config", str(config), "--out", str(out)) == EXIT_DATA
    assert any(
        message in r.getMessage() and r.getMessage().endswith(f"re-run {stale}")
        for r in caplog.records
    )
    assert _tree(out) == before


def test_node_csvs_match_combined_graphml(upstream):
    """Every metrics.csv and engagement.csv cell is the combined graph's
    node attribute of that name, as combined.graphml writes it."""
    _, out = upstream
    root = ET.parse(out / "graphs" / "combined.graphml").getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    names = {key.get("id"): key.get("attr.name") for key in root.findall("g:key", ns)}
    nodes = {
        node.get("id"): {names[d.get("key")]: d.text for d in node.findall("g:data", ns)}
        for node in root.findall("g:graph/g:node", ns)
    }
    for name, columns in (("metrics.csv", network.METRICS_COLUMNS),
                          ("engagement.csv", network.ENGAGEMENT_COLUMNS)):
        with (out / name).open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["source"] for r in rows] == sorted(nodes)
        for row in rows:
            for column in columns:
                want = nodes[row["source"]].get(column)
                assert row[column] == ("" if want is None else want), (name, row, column)
        assert any(row[column] for row in rows for column in columns)


def _fail_after(lines, n):
    yield from lines[:n]
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "earlier", [("detect",), ("detect", "graph")], ids=["first-graph", "graph-again"]
)
def test_failed_stage_leaves_out_dir_as_it_was(tmp_path, monkeypatch, earlier):
    """graph fails partway through its third graph export: none of its
    outputs appears or changes, and no temporary file or directory is left."""
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    out = tmp_path / "out"
    for command in earlier:
        assert _run(command, "--config", cfg, "--out", str(out)) == EXIT_OK
    before = _tree(out)
    written = []

    def failing(path, lines):
        written.append(path)
        if len(written) == 3:
            lines = _fail_after(list(lines), 2)
        write_lines(path, lines)

    monkeypatch.setattr(network, "write_lines", failing)
    assert _run("graph", "--config", cfg, "--out", str(out)) == EXIT_DATA
    assert len(written) == 3
    assert _tree(out) == before


def _from_whole_corpus(cfg, out):
    """Pairs resolved against the whole corpus, re-ingested and
    re-partitioned: what graph and headlines read before the hand-off."""
    collection = ingest_articles(cfg.articles, cfg.format)
    windows = partition_windows(collection, cfg.window_days)
    pairs = read_pairs_csv(out / "pairs.csv", {a.id: a for a in collection}, len(windows))
    return pairs, len(windows), file_sha256(out / "detect_summary.txt")


def test_awkward_titles_survive_the_hand_off(tmp_path, monkeypatch):
    """Titles with a NUL, a CR LF and non-ASCII text, sources with & < and
    both quote kinds, and absent share counts, reach graph and headlines as
    they are in the corpus; combined.graphml's node ids parse back to the
    sources of metrics.csv."""
    body = " ".join(f"word{i}" for i in range(30))
    titles = [
        "Nul\x00 byte and \"quotes\" \u201cbest\u201d",
        "CR LF\r\nsecond line \u2014 \u6771\u4eac 'lies'",
        "Na\u00efve caf\u00e9\u2028separator",
        "A plain honest title",
    ]
    sources = ["src0", "a & b <c> source", "both \"double\" and 'single'", "src3"]
    rows = [
        {"id": f"t{i}", "source": source, "title": title, "body": body,
         "published_utc": BASE_TS + 600 * i, **({"fb_shares": 7 * i} if i % 2 else {})}
        for i, (source, title) in enumerate(zip(sources, titles))
    ]
    corpus = tmp_path / "articles.jsonl"
    write_jsonl(corpus, rows)
    args = ["--articles", str(corpus)]
    for name, word in (("bias", "lies"), ("positive", "honest"), ("negative", "best")):
        lexicon = tmp_path / f"{name}.txt"
        lexicon.write_text(word + "\n", encoding="utf-8")
        args += [f"--{name}-lexicon", str(lexicon)]
    out, reference = tmp_path / "out", tmp_path / "reference"
    assert _run("detect", "--out", str(out), *args) == EXIT_OK
    shutil.copytree(out, reference)
    handoff = read_matched_articles(out / "matched_articles.jsonl")
    assert handoff == {a.id: a for a in ingest_articles(corpus).articles}
    for command in ("graph", "headlines"):
        assert _run(command, "--out", str(out), *args) == EXIT_OK
    monkeypatch.setattr(cli, "_load_pairs", _from_whole_corpus)
    for command in ("graph", "headlines"):
        assert _run(command, "--out", str(reference), *args) == EXIT_OK
    assert _tree(out) == _tree(reference)
    root = ET.parse(out / "graphs" / "combined.graphml").getroot()
    ids = [node.get("id") for node in root.iter("{http://graphml.graphdrawing.org/xmlns}node")]
    with (out / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        assert ids == [row["source"] for row in csv.DictReader(fh)] == sorted(sources)


def test_bad_lexicon_leaves_headline_outputs_whole(upstream, tmp_path, caplog):
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    names = ["title_pairs.csv", "ranking_most_changed.csv", "ranking_change_magnitude.csv",
             "shifts.csv", "headline_summary.txt"]
    before = {name: (out / name).read_bytes() for name in names}
    empty = tmp_path / "empty.txt"
    empty.write_text("# no terms\n", encoding="utf-8")
    # Had the run got as far as writing, the new threshold would change its outputs.
    code = _run("headlines", "--config", str(config), "--out", str(out),
                "--title-change-threshold", "0.5", "--bias-lexicon", str(empty))
    assert code == EXIT_DATA
    assert "is empty" in caplog.text
    assert {name: (out / name).read_bytes() for name in names} == before


@pytest.mark.parametrize(
    "kept", [["bias_lexicon"], ["bias_lexicon", "negative_lexicon"]], ids=["one", "two"]
)
def test_partial_lexicon_config_is_usage_error(upstream, tmp_path, capsys, kept):
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    missing = [key for key in ("bias_lexicon", "positive_lexicon", "negative_lexicon")
               if key not in kept]
    lines = config.read_text(encoding="utf-8").splitlines(keepends=True)
    partial = tmp_path / "partial.cfg"
    partial.write_text(
        "".join(line for line in lines if line.split("=", 1)[0] not in missing), encoding="utf-8"
    )
    assert _run("headlines", "--config", str(partial), "--out", str(out)) == EXIT_USAGE
    assert f"missing {', '.join(missing)}" in capsys.readouterr().err
    assert _tree(out) == _tree(clean)


def _prefix_bom(path):
    """Prefix a byte-order mark, first dropping a leading comment line so
    that a term, header or key follows the mark."""
    data = path.read_bytes()
    if data.startswith(b"#"):
        data = data.split(b"\n", 1)[1]
    path.write_bytes(b"\xef\xbb\xbf" + data)


def _bad_byte_on_line_2(path):
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff" + rest)


@pytest.mark.parametrize(
    "name, flag, damage, stage, code, message",
    [
        ("bias.txt", "--bias-lexicon", _prefix_bom, "headlines", EXIT_OK, None),
        ("labels.csv", "--labels", _prefix_bom, "graph", EXIT_OK, None),
        ("fixture.cfg", "--config", _prefix_bom, "detect", EXIT_OK, None),
        ("bias.txt", "--bias-lexicon", _bad_byte_on_line_2, "headlines", EXIT_DATA,
         "bias.txt line 2: not valid UTF-8"),
        ("stopwords.txt", "--stopwords", _bad_byte_on_line_2, "headlines", EXIT_DATA,
         "stopwords.txt line 2: not valid UTF-8"),
        ("labels.csv", "--labels", _bad_byte_on_line_2, "graph", EXIT_DATA,
         "labels.csv line 2: not valid UTF-8"),
        ("pairs.csv", None, _bad_byte_on_line_2, "graph", EXIT_DATA,
         "pairs.csv line 2: not valid UTF-8"),
        ("fixture.cfg", "--config", _bad_byte_on_line_2, "detect", EXIT_USAGE,
         "fixture.cfg line 2: not valid UTF-8"),
    ],
    ids=["bom-lexicon", "bom-labels", "bom-config", "bad-byte-lexicon", "bad-byte-stopwords",
         "bad-byte-labels", "bad-byte-pairs", "bad-byte-config"],
)
def test_side_file_encoding(
    upstream, tmp_path, capsys, caplog, name, flag, damage, stage, code, message
):
    """Side files and pairs.csv may carry a byte-order mark; an undecodable
    byte is a data error (a usage error in the config file) naming the line."""
    config, clean = upstream
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    argv = [stage, "--config", str(config), "--out", str(out)]
    if flag is None:
        target = out / name
    else:
        target = tmp_path / name
        shutil.copy(config.parent / name, target)
        argv += [flag, str(target)]  # a second --config wins over the first
    damage(target)
    assert _run(*argv) == code
    if message is not None:
        assert message in capsys.readouterr().err + caplog.text
    if name == "bias.txt" and code == EXIT_OK:
        # The first term follows the mark: the fixture's lexicons are sorted.
        assert "best" in load_lexicon(target, "bias")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the start
    method of its context, runs the initializer and maps in-process."""

    created: list[int] = []
    start_methods: list[str] = []

    def __init__(self, max_workers, initializer, initargs, mp_context=None):
        self.created.append(max_workers)
        self.start_methods.append((mp_context or multiprocessing).get_start_method())
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _detect_with_recording_pool(tmp_path, monkeypatch, jobs, expected):
    # Two windows: no more than two workers, however many --jobs asks for.
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    assert _run("detect", "--config", cfg, "--out", str(tmp_path / "ref")) == EXIT_OK
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(_RecordingPool, "start_methods", [])
    monkeypatch.setattr(cli, "_worker_job", None)
    out = tmp_path / "out"
    assert _run("detect", "--config", cfg, "--out", str(out), "--jobs", str(jobs)) == EXIT_OK
    assert _RecordingPool.created == expected
    for name in ("pairs.csv", "windows.csv", "detect_summary.txt"):
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize(
    "jobs, cpus, expected",
    [(100000, 8, [2]), (100000, 1, []), (100000, None, []), (2, 8, [2]), (1, 8, [])],
)
def test_detect_workers_capped_by_windows_and_cpus(
    tmp_path, monkeypatch, jobs, cpus, expected
):
    # `cpus` is how many CPUs the process may run on, not how many the
    # machine has (64 here); None is a platform that knows neither.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64 if cpus else None)
    if cpus is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    _detect_with_recording_pool(tmp_path, monkeypatch, jobs, expected)


@pytest.mark.parametrize("cpus, expected", [(8, [2]), (1, [])])
def test_detect_workers_capped_by_cpu_count_without_affinity(
    tmp_path, monkeypatch, cpus, expected
):
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    _detect_with_recording_pool(tmp_path, monkeypatch, 100000, expected)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="detect forks its workers only where the platform can fork",
)
def test_detect_pool_forks_whatever_the_default_start_method(tmp_path, monkeypatch):
    """Forked workers inherit the windows and the body spool's descriptor.
    The default here is set to forkserver, the POSIX default from Python
    3.14, which could pass neither."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        _detect_with_recording_pool(tmp_path, monkeypatch, 2, [2])
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert _RecordingPool.start_methods == ["fork"]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="detect forks its workers only where the platform can fork",
)
def test_detect_workers_inherit_windows_without_pickling_them(tmp_path, monkeypatch):
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    assert _run("detect", "--config", cfg, "--out", str(tmp_path / "jobs1")) == EXIT_OK

    def refuse(self):
        raise pickle.PicklingError("a window was pickled")

    monkeypatch.setattr(TimeWindow, "__reduce__", refuse)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(TimeWindow(0, 0, 1, (), BodySpool()))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "jobs2"
    assert _run("detect", "--config", cfg, "--out", str(out), "--jobs", "2") == EXIT_OK
    ref = tmp_path / "jobs1"
    assert len((ref / "windows.csv").read_text(encoding="utf-8").splitlines()) == 3
    for path in sorted(ref.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_unwritable_output_is_data_error(tmp_path):
    fx = _gen(tmp_path)
    assert _run(
        "detect", "--config", str(fx / "fixture.cfg"), "--out", "/proc/nowhere"
    ) == EXIT_DATA


def test_pipeline_with_no_matches(tmp_path):
    articles = tmp_path / "articles.jsonl"
    write_jsonl(
        articles,
        [
            {"id": "a", "source": "wire", "title": "One story",
             "body": "alpha beta gamma delta " * 10, "published_utc": BASE_TS},
            {"id": "b", "source": "blog", "title": "Another story",
             "body": "epsilon zeta eta theta " * 10, "published_utc": BASE_TS + 60},
        ],
    )
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines", "report"):
        assert _run(command, "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert (out / "pairs.csv").read_text().strip().count("\n") == 0  # header only
    assert "No eligible title pairs." in (out / "report.md").read_text()


def _report_table(report, header):
    """The data rows of the report.md table whose header row is `header`."""
    lines = report.splitlines()
    return list(takewhile(bool, lines[lines.index(header) + 2 :]))


def test_sparse_time_span_builds_only_occupied_windows(tmp_path, monkeypatch):
    """Three articles 8,000 years apart span 209,491 fourteen-day windows;
    only the two that hold articles are matched and listed."""
    body = "alpha beta gamma delta " * 10
    articles = tmp_path / "articles.jsonl"
    write_jsonl(
        articles,
        [
            {"id": "orig", "source": "wire", "title": "A story", "body": body,
             "published_utc": 0},
            {"id": "copy", "source": "blog", "title": "A story", "body": body,
             "published_utc": 3600},
            {"id": "late", "source": "wire", "title": "Much later",
             "body": "epsilon zeta eta theta " * 10, "published_utc": 253399622400},
        ],
    )
    calls = []
    original = cli.match_window

    def counting(window, **kwargs):
        calls.append(window.index)
        return original(window, **kwargs)

    monkeypatch.setattr(cli, "match_window", counting)
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines", "report"):
        assert _run(command, "--articles", str(articles), "--out", str(out)) == EXIT_OK
    assert calls == [0, 209490]
    with (out / "windows.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["window_index"] for row in rows] == ["0", "209490"]
    assert "windows=209491\n" in (out / "detect_summary.txt").read_text(encoding="utf-8")
    report = (out / "report.md").read_text(encoding="utf-8")
    table = _report_table(report, "| window | start | docs | eligible | matches |")
    assert [row.split(" | ")[0] for row in table] == ["| 0", "| 209490"]
    assert (out / "report.md").stat().st_size < 100 * 1024


def test_pipe_in_source_name_is_escaped_in_report(tmp_path):
    body = "alpha beta gamma delta " * 10
    articles = tmp_path / "articles.jsonl"
    write_jsonl(
        articles,
        [
            {"id": "orig", "source": "wire", "title": "T", "body": body,
             "published_utc": BASE_TS},
            {"id": "copy", "source": "left|pipe", "title": "T", "body": body,
             "published_utc": BASE_TS + 3600},
        ],
    )
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines", "report"):
        assert _run(command, "--articles", str(articles), "--out", str(out)) == EXIT_OK
    report = (out / "report.md").read_text(encoding="utf-8")
    table = _report_table(report, "| source | weighted out |")
    assert table == ["| left\\|pipe | 1 |"]


def test_windows_csv_docs_counts_each_windows_articles(upstream, tmp_path):
    config, out = upstream
    values = load_config_file(config)
    windows = partition_windows(ingest_articles(values["articles"]), values["window_days"])
    with (out / "windows.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["window_index"]), int(r["docs"])) for r in rows] == [
        (w.index, len(w.articles)) for w in windows
    ]
    # A body too short to match still counts as a document of its window.
    articles = tmp_path / "articles.jsonl"
    write_jsonl(
        articles,
        [{"id": source, "source": source, "body": "too short to count",
          "published_utc": BASE_TS} for source in ("ap", "echo")],
    )
    assert _run("detect", "--articles", str(articles), "--out", str(tmp_path / "o")) == EXIT_OK
    with (tmp_path / "o" / "windows.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["docs"], r["eligible_docs"]) for r in rows] == [("2", "0")]


def test_report_min_window_docs_filter(tmp_path):
    fx = _gen(tmp_path)
    cfg = str(fx / "fixture.cfg")
    out = tmp_path / "out"
    for command in ("detect", "graph", "headlines"):
        assert _run(command, "--config", cfg, "--out", str(out)) == EXIT_OK
    assert _run("report", "--config", cfg, "--out", str(out),
                "--min-window-docs", "100000") == EXIT_OK
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "are omitted" in report


def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\nwindow_days=7\nsimilarity_threshold=0.8\ndedupe_origin=true\n",
        encoding="utf-8",
    )
    values = load_config_file(cfg_path)
    assert values == {
        "window_days": 7, "similarity_threshold": 0.8, "dedupe_origin": True,
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key=1\n", encoding="utf-8")
    with pytest.raises(UsageError):
        load_config_file(bad)


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("window_days=7\njobs=4\n", encoding="utf-8")

    class Args:
        config = str(cfg_path)
        window_days = 10

    cfg = build_config(Args())
    assert cfg.window_days == 10
    assert cfg.jobs == 4
    assert cfg.similarity_threshold == RunConfig().similarity_threshold
