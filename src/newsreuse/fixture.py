"""Synthetic planted-copy corpus generator.

Builds a corpus of pseudo-word articles with a known set of verbatim
cross-source copies, each copy placed inside the same time window as its
original and strictly later. Bodies are long random word sequences over a
few thousand pseudo-words, so unplanted pairs stay far below any realistic
similarity threshold and the planted pairs are the exact ground truth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .corpus import LABEL_VALUES, LABELS_HEADER, SECONDS_PER_DAY, write_csv, write_lines

_SYLLABLES = [
    "ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
    "fa", "fe", "fi", "fo", "ga", "ge", "gi", "go", "ka", "ke",
    "ki", "ko", "la", "le", "li", "lo", "ma", "me", "mi", "mo",
    "na", "ne", "ni", "no", "pa", "pe", "pi", "po", "ra", "re",
    "ri", "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to",
    "va", "ve", "vi", "vo", "za", "ze", "zi", "zo",
]

STOPWORD_FIXTURE = [
    "the", "a", "an", "of", "to", "in", "and", "on", "for", "with",
    "by", "at", "from", "as", "is", "are", "was", "this", "that", "it",
]

BIAS_FIXTURE = [
    "corruption", "propaganda", "best", "scam", "rigged", "disaster",
    "shocking", "massive", "exposed", "radical", "outrageous", "corrupt",
    "devastating", "stunning", "explosive", "bombshell",
]

NEGATIVE_FIXTURE = [
    "lies", "disrespectful", "crying", "fraud", "terrible", "failing",
    "angry", "hate", "worst", "dishonest", "disgrace", "pathetic",
    "broken", "dangerous", "vicious", "hostile",
]

POSITIVE_FIXTURE = [
    "accomplished", "honest", "improved", "great", "win", "success",
    "brilliant", "strong", "proud", "heroic", "inspiring", "excellent",
    "thriving", "generous", "trusted", "admired",
]

# 2017-04-07T00:00:00Z
DEFAULT_START_UTC = 1491523200
# The share of planted copies whose title is rewritten.
CHANGED_TITLE_FRACTION = 0.6


@dataclass(frozen=True)
class FixtureSpec:
    sources: int = 20
    articles_per_source: int = 50
    copies: int = 30
    window_days: int = 14
    windows: int = 4
    seed: int = 20170407


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen = set()
    while len(words) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _title(rng: random.Random, vocab: list[str]) -> str:
    length = rng.randint(6, 11)
    words = [rng.choice(STOPWORD_FIXTURE) if rng.random() < 0.25 else rng.choice(vocab)
             for _ in range(length)]
    return " ".join(words).capitalize()


def _changed_title(rng: random.Random, original: str) -> str:
    words = original.lower().split()
    keep = words[: max(2, len(words) // 2)]
    extra = [
        rng.choice(BIAS_FIXTURE),
        rng.choice(NEGATIVE_FIXTURE),
        rng.choice(STOPWORD_FIXTURE),
    ]
    rng.shuffle(extra)
    return ("breaking " + " ".join(extra + keep)).capitalize()


def generate_fixture(
    out_dir: str | Path, spec: FixtureSpec = FixtureSpec()
) -> dict[str, Path]:
    """Write a synthetic corpus plus side files; returns the created paths."""
    if spec.sources < 2:
        raise ValueError("need at least 2 sources to plant cross-source copies")
    if min(spec.articles_per_source, spec.windows, spec.window_days) < 1:
        raise ValueError("articles_per_source, windows, and window_days must be >= 1")
    if spec.copies > spec.sources * spec.articles_per_source // 2:
        raise ValueError("too many copies for the corpus size")
    out = Path(out_dir)
    rng = random.Random(spec.seed)
    vocab = _vocabulary(rng, 4000)
    sources = [f"source{i:02d}" for i in range(spec.sources)]
    window_len = spec.window_days * SECONDS_PER_DAY
    span = spec.windows * window_len

    articles: list[dict] = []
    for source in sources:
        for k in range(spec.articles_per_source):
            # Pin the very first article to the span start so downstream
            # window anchoring (midnight of the earliest article) lands on
            # the same grid the copies are planted against.
            if source == sources[0] and k == 0:
                published = DEFAULT_START_UTC
            else:
                published = DEFAULT_START_UTC + rng.randrange(span)
            body = " ".join(rng.choice(vocab) for _ in range(rng.randint(60, 150)))
            articles.append(
                {
                    "id": f"{source}-{k:04d}",
                    "source": source,
                    "title": _title(rng, vocab),
                    "body": body,
                    "author": f"author {rng.randrange(40):02d}",
                    "published_utc": published,
                    "url": f"https://{source}.example/{k:04d}",
                    "fb_shares": rng.randrange(5000) if rng.random() > 0.1 else None,
                    "fb_reactions": rng.randrange(8000) if rng.random() > 0.1 else None,
                }
            )

    # Originals need at least an hour of room before their window closes so
    # the copy can land later but inside the same window.
    def window_of(ts: int) -> int:
        return (ts - DEFAULT_START_UTC) // window_len

    def window_end(ts: int) -> int:
        return DEFAULT_START_UTC + (window_of(ts) + 1) * window_len

    candidates = [a for a in articles if window_end(a["published_utc"]) - a["published_utc"] > 3600]
    originals = rng.sample(candidates, spec.copies)
    ground_truth = []
    for j, original in enumerate(originals):
        copy_source = rng.choice([s for s in sources if s != original["source"]])
        room = window_end(original["published_utc"]) - original["published_utc"]
        offset = rng.randint(1800, min(3 * SECONDS_PER_DAY, room - 1))
        change_title = rng.random() < CHANGED_TITLE_FRACTION
        copy = {
            "id": f"{copy_source}-copy-{j:02d}",
            "source": copy_source,
            "title": _changed_title(rng, original["title"]) if change_title
            else original["title"],
            "body": original["body"],
            "author": original["author"],
            "published_utc": original["published_utc"] + offset,
            "url": f"https://{copy_source}.example/copy-{j:02d}",
            "fb_shares": rng.randrange(5000) if rng.random() > 0.1 else None,
            "fb_reactions": rng.randrange(8000) if rng.random() > 0.1 else None,
        }
        articles.append(copy)
        ground_truth.append([
            original["id"], copy["id"], original["source"], copy_source,
            window_of(original["published_utc"]), str(change_title).lower(),
        ])

    paths = {
        "articles": out / "articles.jsonl",
        "labels": out / "labels.csv",
        "bias": out / "bias.txt",
        "positive": out / "positive.txt",
        "negative": out / "negative.txt",
        "stopwords": out / "stopwords.txt",
        "ground_truth": out / "ground_truth.csv",
        "config": out / "fixture.cfg",
    }

    write_lines(
        paths["articles"],
        (json.dumps({k: v for k, v in a.items() if v is not None}, sort_keys=True)
         for a in articles),
    )

    write_csv(
        paths["labels"],
        LABELS_HEADER,
        ([source, *(values[i % len(values)] for values, _ in LABEL_VALUES.values())]
         for i, source in enumerate(sources)),
    )

    for name, words in (
        ("bias", BIAS_FIXTURE),
        ("positive", POSITIVE_FIXTURE),
        ("negative", NEGATIVE_FIXTURE),
        ("stopwords", STOPWORD_FIXTURE),
    ):
        write_lines(paths[name], [f"# fixture {name} lexicon", *sorted(words)])

    write_csv(
        paths["ground_truth"],
        ["original_id", "copy_id", "original_source", "copy_source",
         "window_index", "title_changed"],
        # Sorted by (original_id, copy_id), a unique key since copy ids are.
        sorted(ground_truth),
    )

    write_lines(
        paths["config"],
        [
            f"articles={paths['articles']}",
            "format=jsonl",
            f"labels={paths['labels']}",
            f"bias_lexicon={paths['bias']}",
            f"positive_lexicon={paths['positive']}",
            f"negative_lexicon={paths['negative']}",
            f"stopwords={paths['stopwords']}",
            f"window_days={spec.window_days}",
        ],
    )
    return paths
