"""The body spool: ingest writes each accepted body to an unnamed temporary
file, and detect reads the bodies back one at a time.

Detect's outputs must be those of the bodies as written in the corpus,
whatever their characters, at any --jobs, and nothing may stay behind in
the temporary directory.
"""

import csv
import errno
import json
import os
import random
import tempfile
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsreuse import corpus as corpus_module
from newsreuse.cli import EXIT_DATA, EXIT_OK, RunConfig, main
from newsreuse.corpus import SECONDS_PER_DAY, BodySpool, ingest_articles
from newsreuse.similarity import tokenize

from helpers import BASE_TS, write_jsonl
from oracles import exhaustive_pairs

# Words and gaps whose bytes a spool must keep: non-ASCII and astral
# letters, and gaps that hold a NUL, a CR LF, U+2028 or an emoji.
_WORDS = ["alpha", "beta", "gamma", "café", "東京", "\U0001d54f\U0001d550",
          "K9", "naïve"]
_GAPS = [" ", " ", "\x00", "\r\n", " ", "\t", " \U0001f600 ", "\r"]


@st.composite
def _rows(draw):
    """3-24 articles over two 14-day windows; some bodies repeat an earlier
    one, some are empty or a few tokens long."""
    rows = []
    for i in range(draw(st.integers(3, 24))):
        if rows and draw(st.booleans()):
            body = draw(st.sampled_from(rows))["body"]
        else:
            words = draw(st.lists(st.sampled_from(_WORDS), max_size=30))
            gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(words),
                                 max_size=len(words)))
            body = "".join(g + w for g, w in zip(gaps, words))
        rows.append({
            "id": f"d{i:02d}",
            "source": draw(st.sampled_from(["a", "b", "c"])),
            "title": "",
            "body": body,
            "published_utc": BASE_TS + draw(st.integers(0, 27 * SECONDS_PER_DAY)),
        })
    return rows


def _write_corpus(path, rows, fmt):
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    else:
        with path.open("w", encoding="utf-8", newline="") as fh:
            # Quoted, or a lone CR would end the row.
            writer = csv.DictWriter(
                fh, list(rows[0]), lineterminator="\n", quoting=csv.QUOTE_ALL
            )
            writer.writeheader()
            writer.writerows(rows)


def _expected(rows, fmt, min_tokens, threshold):
    """Per window: (docs, eligible docs), and the cross-source pairs the
    dense oracle scores above `threshold` on the raw texts."""
    # An empty CSV field is an absent one, so an empty CSV body is rejected.
    kept = [row for row in rows if fmt == "jsonl" or row["body"]]
    start = min(row["published_utc"] for row in kept)
    start -= start % SECONDS_PER_DAY
    windows = {}
    for row in sorted(kept, key=lambda row: row["id"]):
        index = (row["published_utc"] - start) // (14 * SECONDS_PER_DAY)
        windows.setdefault(index, []).append(row)
    counts, pairs = {}, {}
    for index, members in windows.items():
        docs = [tokenize(row["body"]) for row in members]
        keep = [i for i, doc in enumerate(docs) if len(doc) >= min_tokens]
        counts[index] = (len(members), len(keep))
        for i, j, sim in exhaustive_pairs([docs[k] for k in keep], threshold):
            a, b = members[keep[i]], members[keep[j]]
            if a["source"] != b["source"]:
                pairs[frozenset((a["id"], b["id"]))] = sim
    return len(rows) - len(kept), counts, pairs


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))}


@given(rows=_rows(), fmt=st.sampled_from(["jsonl", "csv"]),
       min_tokens=st.sampled_from([0, RunConfig.min_body_tokens]))
# Two of three CSV bodies are empty, so absent: more than half the rows are
# rejected and detect exits 2.
@example(rows=[{"id": f"d{i:02d}", "source": "a", "title": "", "body": body,
                "published_utc": BASE_TS} for i, body in enumerate(["alpha", "", ""])],
         fmt="csv", min_tokens=0)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_spooled_bodies_give_the_raw_texts_pairs(rows, fmt, min_tokens):
    threshold = RunConfig.similarity_threshold
    rejected, counts, oracle = _expected(rows, fmt, min_tokens, threshold - 1e-12)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        spool_dir = Path(tmp, "spool")
        spool_dir.mkdir()
        mp.setattr(tempfile, "tempdir", str(spool_dir))
        # Two CPUs, so that --jobs 2 forks a pool when there are two windows.
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        corpus = Path(tmp, f"articles.{fmt}")
        _write_corpus(corpus, rows, fmt)
        outs = [Path(tmp, f"out{jobs}") for jobs in (1, 2)]
        codes = [
            main(["detect", "--articles", str(corpus), "--format", fmt, "--out", str(out),
                  "--min-body-tokens", str(min_tokens), "--jobs", str(jobs)])
            for jobs, out in zip((1, 2), outs)
        ]
        assert os.listdir(spool_dir) == []
        if 2 * rejected > len(rows):
            assert codes == [EXIT_DATA, EXIT_DATA]
            assert not any(out.exists() for out in outs)
            return
        assert codes == [EXIT_OK, EXIT_OK]
        assert _tree(outs[0]) == _tree(outs[1])
        with (outs[0] / "pairs.csv").open(encoding="utf-8", newline="") as fh:
            pairs = list(csv.DictReader(fh))
        with (outs[0] / "windows.csv").open(encoding="utf-8", newline="") as fh:
            windows = list(csv.DictReader(fh))
    got = {frozenset((p["earlier_id"], p["later_id"])): float(p["similarity"]) for p in pairs}
    assert len(got) == len(pairs)
    # A tiny vocabulary gives pairs whose exact cosine is the threshold;
    # rounding may put those on either side of it.
    certain = {key for key, sim in oracle.items() if sim > threshold + 1e-12}
    assert certain <= got.keys() <= oracle.keys()
    for key, sim in got.items():
        assert abs(sim - oracle[key]) <= 1e-12
    matches = Counter(int(p["window_index"]) for p in pairs)
    assert {
        int(w["window_index"]): (int(w["docs"]), int(w["eligible_docs"]), int(w["matches"]))
        for w in windows
    } == {index: (*counts[index], matches[index]) for index in counts}


def test_ingest_spools_bodies_instead_of_holding_them(tmp_path):
    """After ingesting about 2 MB of bodies, Python holds under a quarter
    of their bytes, and each body reads back from the spool as it was."""
    rng = random.Random(8)
    bodies = [
        " ".join(f"wé{rng.randrange(10**6)}" for _ in range(450)) for _ in range(500)
    ]
    path = tmp_path / "articles.jsonl"
    write_jsonl(
        path,
        [
            {"id": f"a{i}", "source": f"s{i % 5}", "body": body, "published_utc": BASE_TS + i}
            for i, body in enumerate(bodies)
        ],
    )
    body_bytes = sum(len(body.encode("utf-8")) for body in bodies)
    assert body_bytes > 2_000_000
    tracemalloc.start()
    try:
        collection = ingest_articles(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    try:
        assert held < body_bytes / 4, (held, body_bytes)
        assert [collection.spool.read(a.body_index) for a in collection] == bodies
    finally:
        collection.spool.close()


# The empty body, lone surrogates, a body that is a prefix of another, and
# bodies of one length that differ in a byte, each some times over.
_SPOOLED = ["alpha beta", "", "\ud800", "alpha", "alpha beta", "\udfff", "", "alphb",
            "\ud800", "alpha", "alpha beta gamma", "alphb", ""]


@pytest.mark.parametrize("one_key", [False, True])
def test_equal_bodies_share_a_span_and_unequal_bodies_never_do(one_key):
    """Until `flush`, equal bodies get equal indices and unequal bodies
    unequal ones. After it, a body may be written anew, but each index still
    reads back the body it was given for. Under one hash key, only the spool's
    byte comparison tells the bodies apart."""
    spool = BodySpool()
    one_hash = mock.patch.object(corpus_module, "hash", lambda data: 0, create=True)
    try:
        with one_hash if one_key else nullcontext():
            before = [spool.append(body) for body in _SPOOLED]
            spool.flush()
            after = [spool.append(body) for body in reversed(_SPOOLED)]
        spool.flush()
        for body, index in zip(_SPOOLED, before):
            assert [other == body for other in _SPOOLED] == [i == index for i in before]
        bodies = _SPOOLED + _SPOOLED[::-1]
        assert [spool.read(index) for index in before + after] == bodies
    finally:
        spool.close()


def test_ingest_writes_each_distinct_body_once(tmp_path):
    """A corpus whose sources republish each other's bodies spools only the
    distinct bodies' bytes, and its copies share their first copy's index."""
    rng = random.Random(4)
    stories = ["", "café au lait", "breaking news " * 40, "東京 " * 9, "breaking news"]
    bodies = [rng.choice(stories) for _ in range(60)]
    path = tmp_path / "articles.jsonl"
    write_jsonl(path, [
        {"id": f"a{i}", "source": f"s{i % 7}", "body": body, "published_utc": BASE_TS + i}
        for i, body in enumerate(bodies)
    ])
    collection = ingest_articles(path)
    try:
        indices = [a.body_index for a in collection]
        assert len(set(indices)) == len(set(bodies))
        assert [collection.spool.read(index) for index in indices] == bodies
        assert os.fstat(collection.spool._fd).st_size == sum(
            len(body.encode("utf-8")) for body in set(bodies)
        )
    finally:
        collection.spool.close()


@pytest.mark.parametrize("method", ["write", "flush"])
def test_full_spool_disk_is_data_error_naming_the_temp_dir(
    tmp_path, monkeypatch, caplog, method
):
    """A spool that cannot be written is exit 2, names the temporary
    directory rather than the corpus, and leaves the outputs as they were."""
    articles = tmp_path / "articles.jsonl"
    body = "alpha beta gamma delta " * 10
    write_jsonl(articles, [
        {"id": "a", "source": "wire", "body": body, "published_utc": BASE_TS},
        {"id": "b", "source": "blog", "body": body, "published_utc": BASE_TS + 60},
    ])
    out = tmp_path / "out"
    argv = ["detect", "--articles", str(articles), "--out", str(out)]
    assert main(argv) == EXIT_OK
    before = _tree(out)
    make_file = tempfile.TemporaryFile

    class FullDisk:
        """A temporary file on a disk with no space left."""

        def __init__(self, *args, **kwargs):
            self._file = make_file(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._file, name)

        def close(self):
            # A close writes what is left in the buffer, and fails again.
            self._file.close()
            no_space(self)

    def no_space(self, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    # The two bodies are equal, so a failing flush fails first where the
    # second body is compared with the first, before ingest's own flush.
    setattr(FullDisk, method, no_space)
    monkeypatch.setattr(tempfile, "TemporaryFile", FullDisk)
    assert main(argv) == EXIT_DATA
    assert _tree(out) == before
    assert f"cannot spool article bodies in {tempfile.gettempdir()}" in caplog.text
    assert os.strerror(errno.ENOSPC) in caplog.text
    assert str(articles) not in caplog.text
