"""Corpus ingestion, validation, time partitioning, and file I/O.

Articles arrive as JSONL or CSV, one record per article. Rows that fail
validation are collected into a rejects report instead of aborting the run,
unless more than half the rows are bad, which signals a schema mismatch
rather than dirty data. Collections are immutable after construction and
safe to share with worker processes forked from the one that ingested them.
No article holds its body: ingest writes each distinct body once to its
collection's `BodySpool`, an unnamed temporary file, and copies share its
span. The matcher reads each distinct body of a window back once, one at a
time, so memory does not grow with the corpus's bytes.

Every other file the pipeline reads or writes goes through four functions
here: `read_text` and `read_csv` for side files (labels, lexicons, stopwords,
config) and the tables one stage hands the next, `write_csv` and
`write_lines` for every output. They read UTF-8 with or without a
byte-order mark, turn an unreadable file, an undecodable byte or a CSV the
parser cannot read into a `DataError` naming the file and line, and write
UTF-8 with `\\n` line ends. An output is written under a temporary name and
moved into place once whole; inside `staged_outputs` the move waits until
the block succeeds. Detect's hand-off to the later stages, `pairs.csv` and
`matched_articles.jsonl`, is written and read here, and `pair_articles`, the
one rule that orders a pair and sets its direction, is here too.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import tempfile
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import DataError

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400
CORPUS_FORMATS = ("jsonl", "csv")

_WS_RE = re.compile(r"\s+")
_INT_RE = re.compile(r"[+-]?\d+")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# Characters XML 1.0 forbids; a source becomes a GraphML node id.
_XML_FORBIDDEN_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
# The instants `format_timestamp` can format.
_MIN_TS = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
_MAX_TS = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())
# The largest engagement count accepted: the largest integer a double holds
# exactly, since the medians are written as doubles.
MAX_COUNT = 2**53 - 1


def canonical_source(name: str) -> str:
    """Normalize a source name: trim, lowercase, collapse inner whitespace."""
    return _WS_RE.sub(" ", name.strip().lower())


def parse_timestamp(value: Any) -> int:
    """Parse ISO-8601 text or integer epoch seconds into epoch seconds (UTC).

    Naive ISO timestamps are taken as UTC. Anything else, and any instant
    outside the years 1-9999 that `format_timestamp` can format, raises
    ValueError.
    """
    ts = _epoch_seconds(value)
    if not _MIN_TS <= ts <= _MAX_TS:
        hint = "; milliseconds?" if _MAX_TS < ts and ts // 1000 <= _MAX_TS else ""
        raise ValueError(f"timestamp {ts} is out of range{hint}")
    return ts


def _epoch_seconds(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError("boolean is not a timestamp")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError("timestamps are seconds precision, got fractional epoch value")
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty timestamp")
        if _INT_RE.fullmatch(text):
            return int(text)
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(f"unparseable timestamp {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    raise ValueError(f"unsupported timestamp type {type(value).__name__}")


def format_timestamp(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True, slots=True)
class Article:
    """One news item. `published_utc` is epoch seconds. `body_span` is the
    (offset, length) of its body in its collection's `BodySpool`; an article
    read back from detect's hand-off has none. Where the body lies is not
    part of the article, so equality ignores it."""

    id: str
    source: str
    title: str
    published_utc: int
    fb_shares: int | None = None
    fb_reactions: int | None = None
    body_span: tuple[int, int] | None = field(default=None, compare=False)


class BodySpool:
    """Article bodies, as UTF-8, one after another in an unnamed temporary
    file under `tempfile.gettempdir()`, which the OS removes when the file is
    closed or the process ends.

    `append` returns a body's (offset, length). A body identical to one
    appended before `flush` gets that body's span and is not written again:
    bodies are keyed by the hash of their bytes, and a key hit is confirmed
    by reading the earlier span back and comparing bytes, so two different
    bodies never share a span. `flush` frees the key table. After it, `read`
    reads a span back with `os.pread`, which moves no file position, so
    processes forked after the flush read through the descriptor they
    inherit. The file is closed by `close`, or when the spool is garbage. An
    OSError in making the file, `append` or `flush`, such as a full disk, is
    a DataError naming the directory.
    """

    def __init__(self) -> None:
        try:
            # A 64 KiB buffer halves the write time of the default's.
            self._file = tempfile.TemporaryFile(buffering=1 << 16)
        except OSError as exc:
            raise _spool_error(exc) from exc
        self._fd = self._file.fileno()
        self._size = 0
        self._span_of: dict[int, tuple[int, int]] = {}
        self._finalizer = weakref.finalize(self, _discard, self._file)

    def append(self, body: str) -> tuple[int, int]:
        # surrogatepass: any str round-trips, as a body held in memory did.
        data = body.encode("utf-8", "surrogatepass")
        key = hash(data)
        span = self._span_of.get(key)
        try:
            while span is not None:
                if span[1] == len(data):
                    # The earlier copy may still be in the write buffer.
                    self._file.flush()
                    if os.pread(self._fd, len(data), span[0]) == data:
                        return span
                # The key is another body's: try the next one.
                key += 1
                span = self._span_of.get(key)
            self._file.write(data)
        except OSError as exc:
            raise _spool_error(exc) from exc
        span = self._span_of[key] = (self._size, len(data))
        self._size += len(data)
        return span

    def flush(self) -> None:
        self._span_of = {}
        try:
            self._file.flush()
        except OSError as exc:
            raise _spool_error(exc) from exc

    def read(self, span: tuple[int, int]) -> str:
        offset, length = span
        return os.pread(self._fd, length, offset).decode("utf-8", "surrogatepass")

    def close(self) -> None:
        self._finalizer()


def _discard(file: Any) -> None:
    # After a failed write the buffer still holds bytes that closing tries
    # to write again; the spool is scratch, so that second failure is moot.
    with suppress(OSError):
        file.close()


def _spool_error(exc: OSError) -> DataError:
    return DataError(
        f"cannot spool article bodies in {tempfile.gettempdir()}: {exc}; "
        f"free space there or point TMPDIR elsewhere"
    )


@dataclass(frozen=True)
class Reject:
    """A rejected input row and why it was dropped."""

    row: int
    reason: str


@dataclass(frozen=True)
class ArticleCollection:
    articles: tuple[Article, ...]
    spool: BodySpool = field(compare=False, repr=False)
    rejects: tuple[Reject, ...] = ()

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self) -> Iterator[Article]:
        return iter(self.articles)

    def sources(self) -> set[str]:
        return {a.source for a in self.articles}


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start_utc, end_utc) holding its articles, whose
    bodies are in `spool`."""

    index: int
    start_utc: int
    end_utc: int
    articles: tuple[Article, ...]
    spool: BodySpool = field(compare=False, repr=False)


def _derived_id(source: str, url: str | None, published_utc: int) -> str:
    raw = f"{source}\n{url or ''}\n{published_utc}"
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]


def _optional_count(value: Any, name: str) -> int | None:
    if value is None:
        return None
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return None
        if not _INT_RE.fullmatch(value):
            raise ValueError(f"non-integer {name} {value!r}")
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise ValueError(f"non-integer {name} {value!r}")
    if value < 0:
        raise ValueError(f"negative {name}")
    if value > MAX_COUNT:
        raise ValueError(f"{name} out of range")
    return value


def _optional_text(value: Any) -> str | None:
    if value is None:
        return None
    text = str(value).strip()
    return text or None


def _article_fields(
    record: Mapping[str, Any], sources: dict[str, str]
) -> tuple[str, str, str, str, int, int | None, int | None]:
    """A record's validated id, source, title, body, published_utc,
    fb_shares and fb_reactions.

    `sources` maps each raw source name that passed the checks to its
    canonical name, so the rows that spell a source alike share one string
    and skip the checks; a name that fails them is not kept, so each of its
    rows is rejected with the reason."""
    source_raw = record.get("source")
    raw = "" if source_raw is None else str(source_raw)
    source = sources.get(raw)
    if source is None:
        source = canonical_source(raw)
        if not source:
            raise ValueError("missing source")
        if _XML_FORBIDDEN_RE.search(source):
            raise ValueError("source holds a control character")
        if len(source) > csv.field_size_limit():
            raise ValueError("source longer than the CSV field limit")
        sources[raw] = source

    body = record.get("body")
    if body is None:
        raise ValueError("missing body")
    body = str(body)

    ts_raw = record.get("published_utc")
    if ts_raw is None or (isinstance(ts_raw, str) and not ts_raw.strip()):
        raise ValueError("missing published_utc")
    published = parse_timestamp(ts_raw)

    title = record.get("title")
    title = "" if title is None else str(title)

    # `url` only derives a missing id; `author` is accepted and ignored.
    article_id = _optional_text(record.get("id"))
    if article_id is None:
        article_id = _derived_id(source, _optional_text(record.get("url")), published)

    return (
        article_id,
        source,
        title,
        body,
        published,
        _optional_count(record.get("fb_shares"), "fb_shares"),
        _optional_count(record.get("fb_reactions"), "fb_reactions"),
    )


def _iter_jsonl(path: Path) -> Iterator[tuple[int, Mapping[str, Any] | None, str | None]]:
    # surrogateescape keeps row numbers and universal-newline splitting for
    # any bytes; an invalid byte decodes to a lone surrogate, which valid
    # UTF-8 never does. utf-8-sig drops a leading byte-order mark.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for row, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii() and _SURROGATE_RE.search(line):
                yield row, None, "not valid UTF-8"
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                yield row, None, f"invalid JSON: {exc.msg}"
                continue
            except (ValueError, RecursionError) as exc:
                # an integer past Python's digit limit, or nesting past the
                # recursion limit
                yield row, None, f"invalid JSON: {exc}"
                continue
            if not isinstance(record, dict):
                yield row, None, "record is not an object"
                continue
            # A `\ud800`-style escape decodes to a lone surrogate, which no
            # output file can encode. Only a line with a backslash can hold
            # one, and a one-character search is cheap.
            if "\\" in line and _has_surrogate(record.values()):
                yield row, None, "not valid UTF-8: lone surrogate escape"
                continue
            yield row, record, None


def _iter_csv(path: Path) -> Iterator[tuple[int, Mapping[str, Any] | None, str | None]]:
    # utf-8-sig: a byte-order mark would otherwise prefix the first header.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = _dict_reader(_CsvRows(path, fh))
        fields = reader.fieldnames
        if fields is None:
            raise DataError(f"unparseable header in {path}: file is empty")
        missing = {"source", "body", "published_utc"} - set(fields)
        if missing:
            raise DataError(f"unparseable header in {path}: missing columns {sorted(missing)}")
        for record in reader:
            record.pop(None, None)
            cleaned = {k: v for k, v in record.items() if v is not None and v != ""}
            if _has_surrogate(cleaned.values()):
                yield reader.line_num, None, "not valid UTF-8"
                continue
            yield reader.line_num, cleaned, None


def _has_surrogate(values) -> bool:
    return any(
        isinstance(v, str) and not v.isascii() and _SURROGATE_RE.search(v) for v in values
    )


def ingest_articles(path: str | Path, format: str = "jsonl") -> ArticleCollection:
    """Load and validate an article corpus.

    Ids are assigned deterministically (hash of source, url, and timestamp)
    when absent. A repeated id within one source rejects the second
    occurrence; the same id appearing under different sources is kept as two
    distinct articles, the later one disambiguated with an `@source` suffix,
    or rejected when an earlier article already holds that suffixed id.
    Aborts when more than half the rows fail validation.

    Each accepted body goes to the collection's spool, which the caller
    closes; on an error it is closed here.
    """
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    path = Path(path)
    spool = BodySpool()
    try:
        accepted, rejects = _accept_rows(path, format, spool)
        spool.flush()
        total = len(accepted) + len(rejects)
        if total and 2 * len(rejects) > total:
            raise DataError(
                f"{len(rejects)} of {total} rows rejected; input does not match the "
                f"expected article schema"
            )
    except BaseException:
        spool.close()
        raise
    if rejects:
        log.warning("ingest: %d of %d rows rejected", len(rejects), total)
    return ArticleCollection(tuple(accepted), spool, tuple(rejects))


def _accept_rows(
    path: Path, format: str, spool: BodySpool
) -> tuple[list[Article], list[Reject]]:
    """`ingest_articles`' one pass over the rows: the accepted articles, each
    body appended to `spool`, and the rejects."""
    try:
        rows = _iter_jsonl(path) if format == "jsonl" else _iter_csv(path)
        accepted: list[Article] = []
        rejects: list[Reject] = []
        seen_keys: set[tuple[str, str]] = set()
        seen_ids: set[str] = set()
        sources: dict[str, str] = {}
        for row, record, error in rows:
            if error is not None:
                rejects.append(Reject(row, error))
                continue
            try:
                article_id, source, title, body, published, shares, reactions = (
                    _article_fields(record, sources)
                )
            except ValueError as exc:
                rejects.append(Reject(row, str(exc)))
                continue
            key = (source, article_id)
            if key in seen_keys:
                rejects.append(Reject(row, f"duplicate id {article_id!r} within source"))
                continue
            if article_id in seen_ids:
                article_id = f"{article_id}@{source}"
                if article_id in seen_ids:
                    rejects.append(Reject(row, f"id {article_id!r} already taken"))
                    continue
            # pairs.csv holds each id, and graph and headlines read it back.
            if len(article_id) > csv.field_size_limit():
                rejects.append(Reject(row, "id longer than the CSV field limit"))
                continue
            seen_keys.add(key)
            seen_ids.add(article_id)
            span = spool.append(body)
            # Positional: a frozen dataclass is built faster so.
            accepted.append(Article(article_id, source, title, published, shares, reactions, span))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return accepted, rejects


def partition_windows(
    collection: ArticleCollection, window_days: int = 14
) -> list[TimeWindow]:
    """The windows of the corpus span that hold an article, in index order.

    Window i is the half-open interval [start0 + i * length, start0 + (i + 1)
    * length), with start0 midnight UTC of the earliest article's day, so the
    windows cover every article with no gap or overlap; an article falling
    exactly on a boundary belongs to the later window. An empty window is not
    returned, so the span holds `windows[-1].index + 1` windows. The span's
    last window must end by 9999-12-31, the last day `format_timestamp` can
    write.
    """
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    if not collection.articles:
        raise DataError("cannot partition an empty collection")
    articles = sorted(collection.articles, key=lambda a: (a.published_utc, a.id))
    first, last = articles[0].published_utc, articles[-1].published_utc
    start0 = first - first % SECONDS_PER_DAY
    length = window_days * SECONDS_PER_DAY
    if start0 + ((last - start0) // length + 1) * length > _MAX_TS:
        raise DataError(
            f"latest timestamp {format_timestamp(last)} ({last}) falls in a "
            f"window_days={window_days} window that ends after 9999-12-31"
        )
    return [
        TimeWindow(
            index=index,
            start_utc=start0 + index * length,
            end_utc=start0 + (index + 1) * length,
            articles=tuple(bucket),
            spool=collection.spool,
        )
        for index, bucket in groupby(articles, key=lambda a: (a.published_utc - start0) // length)
    ]


# Each label column's allowed values, in the order gen-fixture deals them,
# and the value a source without a labels row gets.
LABEL_VALUES = {
    "audience": (("mainstream", "alternative", "satire_or_unknown"), "satire_or_unknown"),
    "reliability": (("not_or_unknown", "has_published_fake", "satire"), "not_or_unknown"),
    "leaning": (("left", "right", "neutral_or_unknown"), "neutral_or_unknown"),
}
LABELS_HEADER = ["source", *LABEL_VALUES]


def load_labels(path: str | Path) -> dict[str, dict[str, str]]:
    """Each labeled source's value of every label column, keyed by
    canonical source name."""
    labels: dict[str, dict[str, str]] = {}
    first_row: dict[str, int] = {}
    reader = read_csv(path)
    if reader.fieldnames is None or set(LABELS_HEADER) - set(reader.fieldnames):
        raise DataError(f"labels file {path} must have header {','.join(LABELS_HEADER)}")
    for record in reader:
        row = reader.line_num
        source = canonical_source(record.get("source") or "")
        if not source:
            raise DataError(f"labels row {row}: empty source")
        rec = {column: record[column] for column in LABEL_VALUES}
        for column, (values, _) in LABEL_VALUES.items():
            if rec[column] not in values:
                raise DataError(f"labels row {row}: {rec[column]!r} is not a valid {column}")
        if source in labels:
            if labels[source] != rec:
                raise DataError(
                    f"conflicting label rows for {source!r}: "
                    f"rows {first_row[source]} and {row}"
                )
            continue
        labels[source] = rec
        first_row[source] = row
    return labels


def load_lexicon(path: str | Path, name: str) -> frozenset[str]:
    """The lowercased terms of a one-term-per-line lexicon; `#` lines are
    comments. `name` only labels the error for an empty file."""
    words = set()
    # Lines end at \n, \r or \r\n, as in a file opened in text mode.
    for line in io.StringIO(read_text(path), newline=None):
        term = line.strip()
        if not term or term.startswith("#"):
            continue
        words.add(term.lower())
    if not words:
        raise DataError(f"lexicon {name!r} from {path} is empty")
    return frozenset(words)


def read_text(path: str | Path) -> str:
    """The whole file as text: UTF-8, with or without a byte-order mark.

    An unreadable file, or a byte that is not UTF-8, is a DataError naming
    the file (and the line).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {line}: not valid UTF-8 ({exc.reason})") from None


class _CsvRows:
    """A csv.reader over lines split as a file opened with newline="" splits
    them, whose parse errors are DataErrors naming the file and the line,
    such as a field over the parser's size limit."""

    def __init__(self, path: str | Path, lines: Iterable[str]):
        self._path = path
        self._reader = csv.reader(lines)

    @property
    def line_num(self) -> int:
        return self._reader.line_num

    def __iter__(self) -> "_CsvRows":
        return self

    def __next__(self) -> list[str]:
        try:
            return next(self._reader)
        except csv.Error as exc:
            raise DataError(
                f"{self._path} line {self._reader.line_num}: malformed CSV: {exc}"
            ) from None


def _dict_reader(rows: _CsvRows) -> csv.DictReader:
    reader = csv.DictReader(())
    reader.reader = rows
    return reader


def read_csv_rows(path: str | Path) -> _CsvRows:
    """The rows of `read_text(path)`, split as a file opened with newline=""
    is, so quoted newlines and `line_num` are a file's."""
    return _CsvRows(path, io.StringIO(read_text(path), newline=""))


def read_csv(path: str | Path) -> csv.DictReader:
    """A DictReader over `read_csv_rows(path)`."""
    return _dict_reader(read_csv_rows(path))


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes, read in chunks so memory stays flat."""
    digest = hashlib.sha256()
    try:
        with Path(path).open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


class _Staging:
    """Outputs written inside `staged_outputs`: temporary name by final
    path, and the directories made for them."""

    def __init__(self) -> None:
        self.files: dict[Path, Path] = {}
        self.dirs: list[Path] = []


_staging: _Staging | None = None


@contextmanager
def staged_outputs() -> Iterator[None]:
    """Hold back every output written in the block under its temporary name,
    and move them all into place when the block succeeds. When it raises,
    remove them and the directories made for them, so the previous outputs
    stay as they were."""
    global _staging
    staging = _staging = _Staging()
    try:
        yield
        for final, temp in staging.files.items():
            os.replace(temp, final)
    except BaseException:
        for temp in staging.files.values():
            temp.unlink(missing_ok=True)
        for directory in reversed(staging.dirs):
            try:
                directory.rmdir()
            except OSError:  # not empty: it holds a file moved into place
                pass
        raise
    finally:
        _staging = None


def _make_dirs(directory: Path) -> None:
    if directory.is_dir():
        return
    _make_dirs(directory.parent)
    directory.mkdir(exist_ok=True)
    if _staging is not None:
        _staging.dirs.append(directory)


@contextmanager
def _output(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file for `path` under a temporary name beside it, moved
    into place once it is whole (or staged, inside `staged_outputs`)."""
    path = Path(path)
    _make_dirs(path.parent)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        if _staging is None:
            os.replace(temp, path)
        else:
            _staging.files[path] = temp
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_csv(
    path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]
) -> None:
    """Write a header and rows as UTF-8 CSV with `\\n` line ends; `rows` is
    consumed as it is written."""
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line followed by `\\n`, as UTF-8."""
    with _output(path) as fh:
        fh.writelines(f"{line}\n" for line in lines)


# The fields of an Article that the stages after detect read, with their
# JSON types; the counts may also be null. An integer must lie in the range
# ingest accepts.
_MATCHED_FIELDS = {
    "id": str, "source": str, "published_utc": int, "title": str,
    "fb_shares": int, "fb_reactions": int,
}
_NULLABLE = frozenset({"fb_shares", "fb_reactions"})
_RANGES = {"published_utc": (_MIN_TS, _MAX_TS), **dict.fromkeys(_NULLABLE, (0, MAX_COUNT))}


def _matched_value_ok(key: str, value: object) -> bool:
    if value is None:
        return key in _NULLABLE
    if type(value) is not _MATCHED_FIELDS[key]:
        return False
    return key not in _RANGES or _RANGES[key][0] <= value <= _RANGES[key][1]


def write_matched_articles(path: str | Path, articles: Iterable[Article]) -> None:
    """One JSON object per article, sorted by id, holding the fields that
    `read_matched_articles` reads back. JSON, not CSV, because a title is
    free text: Python 3.10's csv writer cannot write a NUL.

    Each line is what `json.dumps` of a dict of `_MATCHED_FIELDS` writes,
    built from its own string escaper, `str` of each int and `null` for a
    missing count, in that key order; one `json.dumps` per record costs five
    times as much.
    """
    text = json.encoder.encode_basestring_ascii

    def count(value: int | None) -> str:
        return "null" if value is None else str(value)

    write_lines(
        path,
        (
            f'{{"id": {text(a.id)}, "source": {text(a.source)}, '
            f'"published_utc": {a.published_utc}, "title": {text(a.title)}, '
            f'"fb_shares": {count(a.fb_shares)}, "fb_reactions": {count(a.fb_reactions)}}}'
            for a in sorted(articles, key=lambda a: a.id)
        ),
    )


def read_matched_articles(path: str | Path) -> dict[str, Article]:
    """The articles `write_matched_articles` wrote, by id, with no body
    span; the articles of one source share one string. A line that is not
    such a record, or a second record of one id, is a DataError naming it."""
    articles: dict[str, Article] = {}
    line_of: dict[str, int] = {}
    sources: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        try:
            record = json.loads(line)
            values = {key: record[key] for key in _MATCHED_FIELDS}
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise DataError(
                f"{path} line {lineno}: not a matched-article record "
                f"({type(exc).__name__}: {exc}); re-run detect"
            ) from None
        bad = [key for key, value in values.items() if not _matched_value_ok(key, value)]
        if bad:
            raise DataError(f"{path} line {lineno}: bad value of {bad}; re-run detect")
        article_id = values["id"]
        if article_id in articles:
            raise DataError(
                f"{path} lines {line_of[article_id]} and {lineno}: two records of id "
                f"{article_id!r}; re-run detect"
            )
        line_of[article_id] = lineno
        values["source"] = sources.setdefault(values["source"], values["source"])
        articles[article_id] = Article(**values)
    return articles


FORWARD = "forward"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True, slots=True)
class MatchedPair:
    """A detected near-verbatim pair, ordered by publication time.

    Direction is `ambiguous` when both articles carry the same timestamp;
    such pairs order earlier/later by (source, id) so construction stays
    deterministic.
    """

    earlier: Article
    later: Article
    similarity: float
    window_index: int
    direction: str = FORWARD


def pair_articles(a: Article, b: Article, similarity: float, window_index: int) -> MatchedPair:
    if a.source == b.source:
        raise ValueError("matched pairs must span two sources")
    if (b.published_utc, b.source, b.id) < (a.published_utc, a.source, a.id):
        a, b = b, a
    direction = AMBIGUOUS if a.published_utc == b.published_utc else FORWARD
    return MatchedPair(a, b, similarity, window_index, direction)


PAIRS_HEADER = [
    "window_index",
    "earlier_source",
    "earlier_id",
    "later_source",
    "later_id",
    "similarity",
    "direction",
]


def write_pairs_csv(pairs: Iterable[MatchedPair], path: str | Path) -> None:
    write_csv(
        path,
        PAIRS_HEADER,
        (
            [
                p.window_index,
                p.earlier.source,
                p.earlier.id,
                p.later.source,
                p.later.id,
                repr(p.similarity),
                p.direction,
            ]
            for p in pairs
        ),
    )


def read_pairs_csv(
    path: str | Path, articles_by_id: Mapping[str, Article], window_count: int
) -> list[MatchedPair]:
    """Rebuild matched pairs from CSV, resolving article refs by id.

    Each row is paired again by `pair_articles`; a row whose order or
    direction differs from that pairing, whose field count differs from the
    header's, whose window is not below `window_count`, or that repeats an
    earlier row's two ids, is a DataError."""
    pairs = []
    row_of: dict[tuple[str, str], int] = {}
    rows = read_csv_rows(path)
    if next(rows, None) != PAIRS_HEADER:
        raise DataError(f"{path} does not look like a matched-pairs CSV")
    for fields in rows:
        if not fields:  # a blank line, which read_csv skips too
            continue
        row = rows.line_num
        if len(fields) != len(PAIRS_HEADER):
            raise DataError(f"{path} row {row}: field count is not the header's; re-run detect")
        window_index, earlier_source, earlier_id, later_source, later_id, score, direction = fields
        earlier = articles_by_id.get(earlier_id)
        later = articles_by_id.get(later_id)
        if earlier is None or later is None:
            raise DataError(f"{path} row {row}: article id not in corpus")
        if (earlier.source, later.source) != (earlier_source, later_source):
            raise DataError(
                f"{path} row {row}: sources disagree with the articles it names; re-run detect"
            )
        try:
            similarity = float(score)
            if not math.isfinite(similarity):
                raise ValueError(f"similarity {similarity!r} is not finite")
            window = int(window_index)
            if not 0 <= window < window_count:
                raise ValueError(
                    f"window {window} is not one of the {window_count} windows detect "
                    f"recorded; re-run detect"
                )
            pair = pair_articles(earlier, later, similarity, window)
        except ValueError as exc:
            raise DataError(f"{path} row {row}: {exc}") from None
        if pair.earlier is not earlier or pair.direction != direction:
            raise DataError(
                f"{path} row {row}: order or direction disagrees with the articles' "
                f"timestamps; re-run detect"
            )
        ids = (earlier.id, later.id)
        if ids in row_of:
            raise DataError(
                f"{path} row {row}: repeats the pair of row {row_of[ids]}; re-run detect"
            )
        row_of[ids] = row
        pairs.append(pair)
    return pairs
