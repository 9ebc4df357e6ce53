"""Seeded Zipfian corpus with planted multi-source stories.

Body words are drawn from a Zipf(s) distribution over a fixed pseudo-word
vocabulary, so document frequencies look like real text and rarest-first
prefix filtering prunes. A number of base articles become stories: each is
republished by 1 + Geometric(p) other sources, with a small fraction of its
tokens substituted, so copies score just below 1.0 against the original and
each other, and several copies of one story form a cluster.

All sampling is vectorized with one numpy Generator seeded from `seed`; the
same seed and sizes give byte-identical files. The planted pairs (every pair
within a story cluster) are written to `planted.csv`.

Run as a script, it also writes `expected_pairs.csv`, the pairs `newsreuse
detect` must find, from the independent recomputation in verify.py:

    PYTHONPATH=src python3 perfbench/zipfgen.py --out DIR --seed N
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from newsreuse.fixture import (
    BIAS_FIXTURE,
    DEFAULT_START_UTC,
    NEGATIVE_FIXTURE,
    POSITIVE_FIXTURE,
    STOPWORD_FIXTURE,
)

SECONDS_PER_DAY = 86400

_SYLLABLES = [
    a + b for a in "bdfgklmnprstvz" for b in "aeiou"
]  # 70 two-letter syllables; three of them name 343k distinct words


# The zipf-stories workload. Sizes are arguments of generate(), so tests can
# shrink them; the text model below is fixed.
SOURCES = 40
ARTICLES_PER_SOURCE = 100
STORIES = 300
WINDOWS = 2
VOCABULARY = 50_000
WINDOW_DAYS = 14
EXPONENT = 1.1
MIN_TOKENS, MAX_TOKENS = 150, 600
REPUBLISH_P = 0.35  # each story gets 1 + Geometric(REPUBLISH_P) copies
SUBSTITUTION = 0.01  # share of a copy's tokens redrawn
CHANGED_TITLE_FRACTION = 0.6


def vocabulary(size: int) -> np.ndarray:
    """Fixed pseudo-words, one per Zipf rank: three syllables in base 70."""
    n = len(_SYLLABLES)
    if size > n**3:
        raise ValueError(f"vocabulary larger than {n ** 3} words")
    ranks = np.arange(size)
    syl = np.array(_SYLLABLES, dtype=object)
    return syl[ranks // (n * n)] + syl[(ranks // n) % n] + syl[ranks % n]


class _ZipfSampler:
    def __init__(self, rng: np.random.Generator, size: int, exponent: float):
        weights = np.arange(1, size + 1, dtype=float) ** -exponent
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = rng

    def draw(self, count: int) -> np.ndarray:
        u = self._rng.random(count)
        return np.minimum(np.searchsorted(self._cdf, u, side="right"), len(self._cdf) - 1)


def _changed_title(rng: np.random.Generator, original: str) -> str:
    words = original.lower().split()
    keep = words[: max(2, len(words) // 2)]
    extra = [
        BIAS_FIXTURE[rng.integers(len(BIAS_FIXTURE))],
        NEGATIVE_FIXTURE[rng.integers(len(NEGATIVE_FIXTURE))],
        STOPWORD_FIXTURE[rng.integers(len(STOPWORD_FIXTURE))],
    ]
    rng.shuffle(extra)
    return ("breaking " + " ".join(extra + keep)).capitalize()


def generate(
    out_dir: str | Path,
    seed: int,
    sources: int = SOURCES,
    articles_per_source: int = ARTICLES_PER_SOURCE,
    stories: int = STORIES,
    windows: int = WINDOWS,
    vocabulary_size: int = VOCABULARY,
) -> dict[str, Path]:
    """Write the corpus, labels, lexicons, planted pairs and a config file."""
    if stories > sources * articles_per_source:
        raise ValueError("more stories than base articles")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    words = vocabulary(vocabulary_size)
    zipf = _ZipfSampler(rng, vocabulary_size, EXPONENT)
    names = [f"source{i:02d}" for i in range(sources)]
    window_len = WINDOW_DAYS * SECONDS_PER_DAY
    span = windows * window_len

    n_base = sources * articles_per_source
    lengths = rng.integers(MIN_TOKENS, MAX_TOKENS + 1, n_base)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    tokens = zipf.draw(int(bounds[-1]))
    published = DEFAULT_START_UTC + rng.integers(0, span, n_base)
    # Pin the first article to the span start so windows anchor on the grid
    # the stories are planted against.
    published[0] = DEFAULT_START_UTC
    title_len = rng.integers(6, 12, n_base)
    title_bounds = np.concatenate(([0], np.cumsum(title_len)))
    n_title = int(title_bounds[-1])
    stop = np.array(STOPWORD_FIXTURE, dtype=object)
    title_words = np.where(
        rng.random(n_title) < 0.25,
        stop[rng.integers(0, len(stop), n_title)],
        words[rng.integers(20, 5000, n_title)],
    )
    shares = rng.integers(0, 5000, n_base)
    reactions = rng.integers(0, 8000, n_base)

    articles: list[dict] = []
    for i in range(n_base):
        source = names[i // articles_per_source]
        k = i % articles_per_source
        articles.append(
            {
                "id": f"{source}-{k:04d}",
                "source": source,
                "title": " ".join(
                    title_words[title_bounds[i]:title_bounds[i + 1]].tolist()
                ).capitalize(),
                "body": " ".join(words[tokens[bounds[i]:bounds[i + 1]]].tolist()),
                "author": f"author {i % 40:02d}",
                "published_utc": int(published[i]),
                "url": f"https://{source}.example/{k:04d}",
                "fb_shares": int(shares[i]),
                "fb_reactions": int(reactions[i]),
            }
        )

    window_end = DEFAULT_START_UTC + ((published - DEFAULT_START_UTC) // window_len + 1) * window_len
    room = window_end - published
    candidates = np.flatnonzero(room > 2 * 3600)
    originals = rng.choice(candidates, stories, replace=False)
    copy_counts = np.minimum(
        1 + rng.geometric(REPUBLISH_P, stories), sources - 1
    )
    planted: list[tuple[int, str, str]] = []
    for story, (orig, n_copies) in enumerate(zip(originals, copy_counts)):
        original = articles[orig]
        own = orig // articles_per_source
        others = [s for s in range(sources) if s != own]
        copy_sources = rng.choice(others, n_copies, replace=False)
        limit = min(3 * SECONDS_PER_DAY, int(room[orig]) - 1)
        offsets = rng.integers(1800, limit + 1, n_copies)
        body = tokens[bounds[orig]:bounds[orig + 1]]
        cluster = [original["id"]]
        for src, offset in zip(copy_sources, offsets):
            copy_tokens = body.copy()
            swap = np.flatnonzero(rng.random(len(body)) < SUBSTITUTION)
            copy_tokens[swap] = zipf.draw(len(swap))
            source = names[src]
            title = original["title"]
            if rng.random() < CHANGED_TITLE_FRACTION:
                title = _changed_title(rng, title)
            copy = {
                "id": f"{source}-s{story:04d}",
                "source": source,
                "title": title,
                "body": " ".join(words[copy_tokens].tolist()),
                "author": original["author"],
                "published_utc": original["published_utc"] + int(offset),
                "url": f"https://{source}.example/s{story:04d}",
                "fb_shares": int(rng.integers(0, 5000)),
                "fb_reactions": int(rng.integers(0, 8000)),
            }
            articles.append(copy)
            cluster.append(copy["id"])
        for a, b in itertools.combinations(cluster, 2):
            planted.append((story, a, b))

    paths = {
        "articles": out / "articles.jsonl",
        "labels": out / "labels.csv",
        "bias": out / "bias.txt",
        "positive": out / "positive.txt",
        "negative": out / "negative.txt",
        "stopwords": out / "stopwords.txt",
        "planted": out / "planted.csv",
        "config": out / "fixture.cfg",
    }
    with paths["articles"].open("w", encoding="utf-8") as fh:
        for article in articles:
            fh.write(json.dumps(article, sort_keys=True) + "\n")
    with paths["labels"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "audience", "reliability", "leaning"])
        audiences = ["mainstream", "alternative", "satire_or_unknown"]
        reliabilities = ["not_or_unknown", "has_published_fake", "satire"]
        leanings = ["left", "right", "neutral_or_unknown"]
        for i, source in enumerate(names):
            writer.writerow([source, audiences[i % 3], reliabilities[i % 3], leanings[i % 3]])
    for name, lexicon in (
        ("bias", BIAS_FIXTURE),
        ("positive", POSITIVE_FIXTURE),
        ("negative", NEGATIVE_FIXTURE),
        ("stopwords", STOPWORD_FIXTURE),
    ):
        paths[name].write_text("\n".join(sorted(lexicon)) + "\n", encoding="utf-8")
    with paths["planted"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["story", "id_a", "id_b"])
        writer.writerows(planted)
    paths["config"].write_text(
        "".join(
            f"{key}={value}\n"
            for key, value in [
                ("articles", paths["articles"]),
                ("format", "jsonl"),
                ("labels", paths["labels"]),
                ("bias_lexicon", paths["bias"]),
                ("positive_lexicon", paths["positive"]),
                ("negative_lexicon", paths["negative"]),
                ("stopwords", paths["stopwords"]),
                ("window_days", WINDOW_DAYS),
            ]
        ),
        encoding="utf-8",
    )
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Zipf story corpus and its expected pairs")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import verify

    paths = generate(args.out, args.seed)
    expected = verify.reference_pairs(paths["articles"], WINDOW_DAYS)
    verify.write_pairs(expected, Path(args.out) / "expected_pairs.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
