"""Headline change detection and feature-shift analysis.

Copied articles often carry rewritten titles. This module measures how far
each copy's title drifts from the original (TFIDF cosine distance), ranks
sources by how many titles they change and by how much, and tests which
content features of the titles shift consistently per source (one-way ANOVA
on feature distributions, gated by normality and sample-size checks).
"""

from __future__ import annotations

import logging
import re
import statistics
import unicodedata
from dataclasses import dataclass, fields
from pathlib import Path
from typing import AbstractSet, Mapping, Sequence

from . import swilk
from .corpus import MatchedPair, write_csv
from .errors import DataError
from .similarity import cosine, fit_tfidf, tokenize, vectorize

log = logging.getLogger(__name__)

# A feature shift needs more than SHIFT_MIN_SAMPLES titles in each group,
# both groups normal at NORMALITY_ALPHA, and an ANOVA p below SHIFT_ALPHA.
SHIFT_MIN_SAMPLES = 8
NORMALITY_ALPHA = 0.05
SHIFT_ALPHA = 0.05

# Minimal fallback so the feature extractor works without a stopword file.
DEFAULT_STOPWORDS = frozenset(
    """a about after all also an and any are as at be because been but by can
    could did do for from had has have he her his how i if in into is it its
    just like me more most my no not now of on or our out over she so some
    than that the their them then there they this to up us was we were what
    when which who will with would you your""".split()
)

_QUOTE_CHARS = frozenset("\"'‘’“”«»‹›„‚`")
# The ASCII characters whose Unicode category is punctuation (P*).
_ASCII_PUNCT = frozenset(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


@dataclass(frozen=True, slots=True)
class TitlePair:
    """Title drift for one matched pair; ineligible when a title is empty."""

    pair: MatchedPair
    distance: float
    eligible: bool

    def changed(self, threshold: float) -> bool:
        return self.eligible and self.distance > threshold


def title_distance(pairs: Sequence[MatchedPair]) -> list[TitlePair]:
    """Cosine distance between original and copy titles for every pair.

    The TFIDF model is fitted once over the set of distinct non-empty titles
    appearing in the pairs, and each pair's titles index its rows; an empty
    title is in no row, so it cannot change another pair's distance.
    Per-window statistics are too sparse for short texts. Identical titles
    are at distance 0 without a model, which also covers corpora with one
    distinct title.
    """
    titles = sorted(
        {p.earlier.title for p in pairs} | {p.later.title for p in pairs}
    )
    model = fit_tfidf(titles, 1)
    row = {titles[k]: i for i, k in enumerate(model.rows)}
    eligible = [p.earlier.title in row and p.later.title in row for p in pairs]
    scored = [
        k for k, p in enumerate(pairs) if eligible[k] and p.earlier.title != p.later.title
    ]
    distances = [0.0] * len(pairs)
    if scored:
        sims = cosine(
            vectorize(model),
            [row[pairs[k].earlier.title] for k in scored],
            [row[pairs[k].later.title] for k in scored],
        )
        for k, sim in zip(scored, sims.tolist()):
            distances[k] = min(1.0, max(0.0, 1.0 - sim))
    return [
        TitlePair(pair=p, distance=distance, eligible=ok)
        for p, distance, ok in zip(pairs, distances, eligible)
    ]


def changed_fraction(title_pairs: Sequence[TitlePair], threshold: float) -> float:
    eligible = [tp for tp in title_pairs if tp.eligible]
    if not eligible:
        raise DataError("no eligible title pairs")
    return sum(1 for tp in eligible if tp.changed(threshold)) / len(eligible)


def rank_changers(
    title_pairs: Sequence[TitlePair], threshold: float
) -> tuple[list[tuple[str, int]], list[tuple[str, float]]]:
    """Rank copying sources by (a) changed-title count, (b) mean distance
    over their changed titles. Ties break by source name."""
    counts: dict[str, int] = {}
    distances: dict[str, list[float]] = {}
    for tp in title_pairs:
        if not tp.changed(threshold):
            continue
        source = tp.pair.later.source
        counts[source] = counts.get(source, 0) + 1
        distances.setdefault(source, []).append(tp.distance)
    most_changed = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    by_magnitude = sorted(
        ((s, statistics.fmean(ds)) for s, ds in distances.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return most_changed, by_magnitude


def _syllables(token: str) -> int:
    """Deterministic vowel-group count with a terminal silent-e adjustment."""
    groups = _VOWEL_GROUP_RE.findall(token)
    count = len(groups)
    if (
        count > 1
        and token.endswith("e")
        and not token.endswith("le")
        and groups[-1] == "e"
    ):
        count -= 1
    return max(1, count)


def flesch_kincaid_grade(tokens: Sequence[str]) -> float:
    """Grade level of a single-sentence text (titles count as one sentence)."""
    words = len(tokens)
    if words == 0:
        return 0.0
    syllables = sum(_syllables(t) for t in tokens)
    return 0.39 * words + 11.8 * (syllables / words) - 15.59


@dataclass(frozen=True)
class TitleFeatures:
    stopword_frac: float
    punctuation_count: float
    quote_count: float
    readability: float
    bias_frac: float
    pos_opinion_frac: float
    neg_opinion_frac: float
    token_count: int


# The features compared per source; token_count only gates readability.
FEATURE_NAMES = tuple(f.name for f in fields(TitleFeatures) if f.name != "token_count")


def extract_features(
    title: str,
    lexicons: Mapping[str, AbstractSet[str]],
    stopwords: AbstractSet[str] = DEFAULT_STOPWORDS,
) -> TitleFeatures:
    """Content features of one title.

    `lexicons` must carry `bias`, `positive` and `negative` entries; matching
    is exact on lowercased tokens. Punctuation and quotes are counted on the
    raw string, everything else on tokens. An empty title is all zeros.
    """
    tokens = tokenize(title)
    n = len(tokens)
    if n == 0:
        return TitleFeatures(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    if title.isascii():
        punctuation = sum(map(_ASCII_PUNCT.__contains__, title))
    else:
        punctuation = sum(1 for ch in title if unicodedata.category(ch).startswith("P"))
    quotes = sum(1 for ch in title if ch in _QUOTE_CHARS)
    bias = lexicons["bias"]
    positive = lexicons["positive"]
    negative = lexicons["negative"]
    return TitleFeatures(
        stopword_frac=sum(1 for t in tokens if t in stopwords) / n,
        punctuation_count=float(punctuation),
        quote_count=float(quotes),
        readability=flesch_kincaid_grade(tokens),
        bias_frac=sum(1 for t in tokens if t in bias) / n,
        pos_opinion_frac=sum(1 for t in tokens if t in positive) / n,
        neg_opinion_frac=sum(1 for t in tokens if t in negative) / n,
        token_count=n,
    )


def title_features(
    title_pairs: Sequence[TitlePair],
    lexicons: Mapping[str, AbstractSet[str]],
    stopwords: AbstractSet[str] = DEFAULT_STOPWORDS,
) -> dict[str, TitleFeatures]:
    """Features of each distinct title of `title_pairs`, which are eligible,
    extracted once per title: a story copied by many sources repeats its
    original title."""
    pairs = [tp.pair for tp in title_pairs]
    titles = dict.fromkeys(title for p in pairs for title in (p.later.title, p.earlier.title))
    return {title: extract_features(title, lexicons, stopwords) for title in titles}


def normality_test(samples: Sequence[float]) -> bool:
    """Shapiro-Wilk check; True when the sample looks normal at NORMALITY_ALPHA."""
    if len(samples) < 3:
        raise ValueError("normality test needs at least 3 samples")
    if max(samples) == min(samples):
        return False
    _, p = swilk.shapiro(samples)
    return p > NORMALITY_ALPHA


def anova_f(
    group_a: Sequence[float], group_b: Sequence[float]
) -> tuple[float, float]:
    """One-way ANOVA for two groups: F = MS_between / MS_within.

    Degrees of freedom are (1, n_a + n_b - 2); p comes from the F
    distribution's survival function (`fdtrc`, which scipy.stats.f.sf
    calls). Raises when both groups are constant (zero within-group
    variance). `scipy.special` is imported on the first call, so a run
    without an ANOVA never loads it.
    """
    from scipy.special import fdtrc

    na, nb = len(group_a), len(group_b)
    if na < 2 or nb < 2:
        raise ValueError("each group needs at least 2 samples")
    mean_a = sum(group_a) / na
    mean_b = sum(group_b) / nb
    grand = (sum(group_a) + sum(group_b)) / (na + nb)
    ss_between = na * (mean_a - grand) ** 2 + nb * (mean_b - grand) ** 2
    ss_within = sum((x - mean_a) ** 2 for x in group_a)
    ss_within += sum((x - mean_b) ** 2 for x in group_b)
    df_within = na + nb - 2
    if ss_within == 0.0:
        raise ValueError("zero within-group variance in both groups")
    f_stat = ss_between / (ss_within / df_within)
    p = float(fdtrc(1, df_within, f_stat))
    return f_stat, p


@dataclass(frozen=True)
class FeatureShift:
    """A statistically significant per-source change in one title feature."""

    source: str
    feature: str
    direction: str  # increase | decrease
    f_stat: float
    p_value: float
    n_own: int
    n_copied: int


def significant_shifts(
    title_pairs: Sequence[TitlePair],
    features: Mapping[str, TitleFeatures],
) -> list[FeatureShift]:
    """Features that shift significantly between each copier's titles and
    the originals it copied, ordered by source, then by p and feature.
    `title_pairs` are eligible, and `features` maps each of their titles to
    its features, as `title_features` builds it.

    For each copier, group A holds its own titles on copied articles, group
    B the corresponding original titles. A shift is emitted only when both
    groups exceed SHIFT_MIN_SAMPLES, both pass normality, and ANOVA gives
    p < SHIFT_ALPHA. Titles under 3 tokens are excluded from the readability
    comparison.
    """
    by_copier: dict[str, tuple[list[TitleFeatures], list[TitleFeatures]]] = {}
    for tp in title_pairs:
        own, originals = by_copier.setdefault(tp.pair.later.source, ([], []))
        own.append(features[tp.pair.later.title])
        originals.append(features[tp.pair.earlier.title])
    shifts = []
    for source, (own, originals) in sorted(by_copier.items()):
        if len(own) <= SHIFT_MIN_SAMPLES:
            log.info(
                "source %s: insufficient samples for shift analysis (%d pairs)",
                source, len(own),
            )
            continue
        for feature in FEATURE_NAMES:
            if feature == "readability":
                group_a = [f.readability for f in own if f.token_count >= 3]
                group_b = [f.readability for f in originals if f.token_count >= 3]
            else:
                group_a = [getattr(f, feature) for f in own]
                group_b = [getattr(f, feature) for f in originals]
            if len(group_a) <= SHIFT_MIN_SAMPLES or len(group_b) <= SHIFT_MIN_SAMPLES:
                continue
            if not normality_test(group_a) or not normality_test(group_b):
                continue
            try:
                f_stat, p = anova_f(group_a, group_b)
            except ValueError:
                continue
            if p < SHIFT_ALPHA:
                mean_a = statistics.fmean(group_a)
                mean_b = statistics.fmean(group_b)
                shifts.append(
                    FeatureShift(
                        source=source,
                        feature=feature,
                        direction="increase" if mean_a > mean_b else "decrease",
                        f_stat=f_stat,
                        p_value=p,
                        n_own=len(group_a),
                        n_copied=len(group_b),
                    )
                )
    shifts.sort(key=lambda s: (s.source, s.p_value, s.feature))
    return shifts


TITLE_PAIRS_HEADER = ["earlier_id", "later_id", "distance", "changed"]
SHIFTS_HEADER = ["source", "feature", "direction", "F", "p", "n_own", "n_copied"]


def write_title_pairs_csv(
    title_pairs: Sequence[TitlePair], path: str | Path, threshold: float
) -> None:
    write_csv(
        path,
        TITLE_PAIRS_HEADER,
        (
            [
                tp.pair.earlier.id,
                tp.pair.later.id,
                repr(tp.distance) if tp.eligible else "",
                str(tp.changed(threshold)).lower(),
            ]
            for tp in title_pairs
        ),
    )


def write_shifts_csv(shifts: Sequence[FeatureShift], path: str | Path) -> None:
    write_csv(
        path,
        SHIFTS_HEADER,
        (
            [s.source, s.feature, s.direction, repr(s.f_stat), repr(s.p_value), s.n_own,
             s.n_copied]
            for s in shifts
        ),
    )
