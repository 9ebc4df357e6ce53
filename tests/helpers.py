"""Shared builders for test corpora."""

import json
import random
from dataclasses import dataclass, replace

from newsreuse.cli import RunConfig
from newsreuse.corpus import Article, BodySpool, TimeWindow, pair_articles

DAY = 86400
BASE_TS = 1491523200  # 2017-04-07T00:00:00Z
# match_window's keywords at a run's default settings.
DEFAULT_MATCH = {
    "threshold": RunConfig.similarity_threshold,
    "min_body_tokens": RunConfig.min_body_tokens,
}


@dataclass(frozen=True)
class TextArticle(Article):
    """An article that carries its body's text, for `make_window` to spool."""

    body: str = ""


def make_article(
    id: str,
    source: str,
    body: str = "",
    title: str = "",
    ts: int = BASE_TS,
    **kwargs,
) -> TextArticle:
    return TextArticle(
        id=id, source=source, title=title, body=body, published_utc=ts, **kwargs
    )


def make_window(articles, index=0, start=BASE_TS, days=14) -> TimeWindow:
    """A window of `TextArticle`s, whose bodies are written to a new spool as
    ingest writes a corpus's, so the matcher reads them back as in detect."""
    spool = BodySpool()
    spooled = tuple(replace(a, body_span=spool.append(a.body)) for a in articles)
    spool.flush()
    return TimeWindow(
        index=index,
        start_utc=start,
        end_utc=start + days * DAY,
        articles=spooled,
        spool=spool,
    )


def republished_window(copies: int, tokens: int) -> TimeWindow:
    """A window in which `copies` sources each publish one body of `tokens`
    words, drawn from 3,000 words, a minute apart: every two of them are a
    kept pair."""
    rng = random.Random(1)
    body = " ".join(rng.choices([f"w{k}" for k in range(3000)], k=tokens))
    return make_window(
        [make_article(f"a{i}", f"s{i}", body=body, ts=BASE_TS + 60 * i) for i in range(copies)]
    )


def make_pair(
    earlier_source, later_source, similarity=1.0, window=0, delta=3600,
    earlier_id=None, later_id=None, earlier_title="", later_title="",
    earlier_ts=BASE_TS, **earlier_extra,
):
    a = make_article(
        earlier_id or f"{earlier_source}-a", earlier_source,
        title=earlier_title, ts=earlier_ts, **earlier_extra,
    )
    b = make_article(
        later_id or f"{later_source}-b", later_source,
        title=later_title, ts=earlier_ts + delta,
    )
    return pair_articles(a, b, similarity, window)


def random_body(rng: random.Random, vocab, lo=25, hi=60) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))


def pseudo_vocab(rng: random.Random, size: int) -> list[str]:
    syllables = ["ka", "lo", "mi", "ta", "re", "zu", "ne", "po", "sa", "vi"]
    words = []
    seen = set()
    while len(words) < size:
        w = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
