"""Per-window TFIDF vectorization and exact all-pairs similarity search.

The matcher finds every cross-source article pair whose body cosine
similarity exceeds a threshold. It scores every pair in a window: the
window's vectors are the rows of one sparse matrix, and the lower triangle
of that matrix times its transpose is computed exactly, tile by tile, with
scipy.sparse. Nothing is pruned, so the result is the exhaustive set by
construction. Output ordering and scores are deterministic.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .corpus import Article, TimeWindow
from .errors import DataError

log = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.90
DEFAULT_MIN_BODY_TOKENS = 20

# Product entries per tile of the exact join; bounds its working memory.
_TILE_ENTRIES = 1 << 16

FORWARD = "forward"
AMBIGUOUS = "ambiguous"

# Word characters minus underscore: punctuation splits tokens, numerals stay.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased Unicode word tokens; punctuation dropped, no stemming."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class TokenizedDoc:
    article_id: str
    tokens: tuple[str, ...]
    term_counts: Mapping[str, int]

    @classmethod
    def from_text(cls, article_id: str, text: str) -> "TokenizedDoc":
        tokens = tuple(tokenize(text))
        return cls(article_id=article_id, tokens=tokens, term_counts=Counter(tokens))


@dataclass
class TfidfModel:
    """Vocabulary and document frequencies for one fitted document set."""

    window_index: int
    vocabulary: dict[str, int]
    doc_freq: dict[str, int]
    num_docs: int

    def __post_init__(self) -> None:
        self._idf_cache: dict[str, float] = {}

    def idf(self, term: str) -> float:
        cached = self._idf_cache.get(term)
        if cached is None:
            cached = math.log((1 + self.num_docs) / (1 + self.doc_freq[term])) + 1.0
            self._idf_cache[term] = cached
        return cached


def fit_tfidf(docs: Sequence[TokenizedDoc], window_index: int) -> TfidfModel:
    """Fit vocabulary and document frequencies over the given documents."""
    if len(docs) < 2:
        raise DataError(f"window {window_index}: fewer than 2 eligible documents")
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        doc_freq.update(doc.term_counts.keys())
    vocabulary = {term: idx for idx, term in enumerate(sorted(doc_freq))}
    return TfidfModel(
        window_index=window_index,
        vocabulary=vocabulary,
        doc_freq=dict(doc_freq),
        num_docs=len(docs),
    )


@dataclass(frozen=True)
class DocVector:
    """L2-normalized sparse vector with strictly increasing indices."""

    article_id: str
    indices: tuple[int, ...]
    weights: tuple[float, ...]

    def __bool__(self) -> bool:
        return bool(self.indices)


def vectorize(model: TfidfModel, doc: TokenizedDoc) -> DocVector:
    """tf * idf weights, L2-normalized; out-of-vocabulary terms dropped."""
    entries: list[tuple[int, float]] = []
    for term in sorted(doc.term_counts):
        idx = model.vocabulary.get(term)
        if idx is None:
            continue
        entries.append((idx, doc.term_counts[term] * model.idf(term)))
    entries.sort()
    norm = math.sqrt(sum(w * w for _, w in entries))
    if norm == 0.0:
        return DocVector(article_id=doc.article_id, indices=(), weights=())
    return DocVector(
        article_id=doc.article_id,
        indices=tuple(i for i, _ in entries),
        weights=tuple(w / norm for _, w in entries),
    )


def sparse_dot(u: DocVector, v: DocVector) -> float:
    iu, iv = u.indices, v.indices
    wu, wv = u.weights, v.weights
    i = j = 0
    nu, nv = len(iu), len(iv)
    acc = 0.0
    while i < nu and j < nv:
        a, b = iu[i], iv[j]
        if a == b:
            acc += wu[i] * wv[j]
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return acc


def cosine(u: DocVector, v: DocVector) -> float:
    """Cosine similarity of two vectors produced by `vectorize`.

    Inputs are unit vectors, so this is their dot product. The merge walks
    indices in the same order for either argument, making the result
    bit-for-bit symmetric.
    """
    return sparse_dot(u, v)


def _threshold_join(
    vectors: Sequence[DocVector], threshold: float
) -> list[tuple[int, int, float]]:
    """All position pairs (i, j), i < j, with dot product > threshold.

    The vectors are stacked as the rows of one CSR matrix X, and the strict
    lower triangle of X X^T is computed exactly with scipy.sparse, one
    square tile of about `_TILE_ENTRIES` entries at a time, so memory does
    not grow with the window. Every pair is scored; nothing is pruned. A
    score sums the products of the two vectors' shared terms in ascending
    term order, so it does not depend on the tiling or on argument order.
    """
    n = len(vectors)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(v.indices) for v in vectors], out=indptr[1:])
    nnz = int(indptr[-1])
    weights = np.fromiter(chain.from_iterable(v.weights for v in vectors), float, nnz)
    indices = np.fromiter(chain.from_iterable(v.indices for v in vectors), np.int32, nnz)
    dim = 1 + max((v.indices[-1] for v in vectors if v.indices), default=0)
    matrix = sparse.csr_matrix((weights, indices, indptr), shape=(n, dim))
    side = max(1, math.isqrt(_TILE_ENTRIES))
    out: list[tuple[int, int, float]] = []
    for later_lo in range(0, n, side):
        later = matrix[later_lo : later_lo + side]
        for earlier_lo in range(0, later_lo + 1, side):
            tile = later @ matrix[earlier_lo : earlier_lo + side].T
            hits = np.flatnonzero(tile.data > threshold)
            later_pos = later_lo + np.searchsorted(tile.indptr, hits, side="right") - 1
            earlier_pos = earlier_lo + tile.indices[hits]
            keep = earlier_pos < later_pos
            out.extend(
                zip(
                    earlier_pos[keep].tolist(),
                    later_pos[keep].tolist(),
                    tile.data[hits[keep]].tolist(),
                )
            )
    return out


@dataclass(frozen=True)
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
    if a.published_utc == b.published_utc:
        first, second = sorted((a, b), key=lambda x: (x.source, x.id))
        return MatchedPair(first, second, similarity, window_index, AMBIGUOUS)
    first, second = sorted((a, b), key=lambda x: x.published_utc)
    return MatchedPair(first, second, similarity, window_index, FORWARD)


@dataclass(frozen=True)
class WindowMatchResult:
    window_index: int
    doc_count: int
    eligible_count: int
    pairs: tuple[MatchedPair, ...]


def match_window(
    window: TimeWindow,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_body_tokens: int = DEFAULT_MIN_BODY_TOKENS,
) -> WindowMatchResult:
    """Fit a TFIDF model on one window and extract all cross-source matches.

    Bodies shorter than `min_body_tokens` tokens do not participate. Windows
    with fewer than two eligible documents are skipped with a logged notice.
    Pairs are sorted by (similarity desc, earlier id, later id).
    """
    articles = sorted(window.articles, key=lambda a: a.id)
    docs = [TokenizedDoc.from_text(a.id, a.body) for a in articles]
    eligible = [i for i, d in enumerate(docs) if len(d.tokens) >= min_body_tokens]
    if len(eligible) < 2:
        log.info(
            "window %d skipped: %d eligible of %d documents",
            window.index, len(eligible), len(docs),
        )
        return WindowMatchResult(window.index, len(docs), len(eligible), ())
    model = fit_tfidf([docs[i] for i in eligible], window.index)
    vectors = [vectorize(model, docs[i]) for i in eligible]
    pairs = []
    for qpos, ppos, sim in _threshold_join(vectors, threshold):
        a, b = articles[eligible[qpos]], articles[eligible[ppos]]
        if a.source == b.source:
            continue
        pairs.append(pair_articles(a, b, sim, window.index))
    pairs.sort(key=lambda p: (-p.similarity, p.earlier.id, p.later.id))
    return WindowMatchResult(window.index, len(docs), len(eligible), tuple(pairs))


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
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PAIRS_HEADER)
        for p in pairs:
            writer.writerow(
                [
                    p.window_index,
                    p.earlier.source,
                    p.earlier.id,
                    p.later.source,
                    p.later.id,
                    repr(p.similarity),
                    p.direction,
                ]
            )


def read_pairs_csv(
    path: str | Path, articles_by_id: Mapping[str, Article]
) -> list[MatchedPair]:
    """Rebuild matched pairs from CSV, resolving article refs by id."""
    path = Path(path)
    pairs = []
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != PAIRS_HEADER:
                raise DataError(f"{path} does not look like a matched-pairs CSV")
            for record in reader:
                row = reader.line_num
                earlier = articles_by_id.get(record["earlier_id"])
                later = articles_by_id.get(record["later_id"])
                if earlier is None or later is None:
                    raise DataError(f"{path} row {row}: article id not in corpus")
                if (
                    earlier.source != record["earlier_source"]
                    or later.source != record["later_source"]
                ):
                    raise DataError(
                        f"{path} row {row}: sources disagree with the corpus; "
                        f"the corpus file changed since detect ran"
                    )
                direction = record["direction"]
                if direction not in (FORWARD, AMBIGUOUS):
                    raise DataError(f"{path} row {row}: bad direction {direction!r}")
                pairs.append(
                    MatchedPair(
                        earlier=earlier,
                        later=later,
                        similarity=float(record["similarity"]),
                        window_index=int(record["window_index"]),
                        direction=direction,
                    )
                )
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return pairs
