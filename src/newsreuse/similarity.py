"""Per-window TFIDF vectorization and exact all-pairs similarity search.

The matcher finds every cross-source article pair whose body cosine
similarity exceeds a threshold. A window's TFIDF matrix is built in one
array pass over all of its tokens: one L2-normalized row per document, in a
single scipy.sparse CSR matrix. Every pair in the window is scored: the
lower triangle of that matrix times its transpose is computed exactly, tile
by tile. Nothing is pruned, so the result is the exhaustive set by
construction. Output ordering and scores are deterministic.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
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

    @classmethod
    def from_text(cls, article_id: str, text: str) -> "TokenizedDoc":
        return cls(article_id=article_id, tokens=tuple(tokenize(text)))


@dataclass(frozen=True, eq=False)
class TfidfModel:
    """Vocabulary and idf weights for one fitted document set.

    `vocabulary` maps each term to its rank in sorted order; `idf[i]` is the
    smoothed idf of the term with id i.
    """

    window_index: int
    vocabulary: dict[str, int]
    idf: np.ndarray
    num_docs: int


def fit_tfidf(docs: Sequence[TokenizedDoc], window_index: int) -> TfidfModel:
    """Fit vocabulary and idf = log((1 + n) / (1 + df)) + 1 over the documents.

    The idf values come from a table indexed by document frequency, built
    with `math.log` (n + 1 calls, not one per term), so they are the same
    bits as the per-term formula.
    """
    if len(docs) < 2:
        raise DataError(f"window {window_index}: fewer than 2 eligible documents")
    n = len(docs)
    doc_freq = Counter(chain.from_iterable(map(set, (d.tokens for d in docs))))
    terms = sorted(doc_freq)
    idf_by_df = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in range(n + 1)])
    dfs = np.fromiter(map(doc_freq.__getitem__, terms), np.intp, len(terms))
    return TfidfModel(
        window_index=window_index,
        vocabulary=dict(zip(terms, range(len(terms)))),
        idf=idf_by_df[dfs],
        num_docs=n,
    )


def vectorize(model: TfidfModel, docs: Sequence[TokenizedDoc]) -> sparse.csr_matrix:
    """The TFIDF matrix of `docs`: one L2-normalized tf * idf row per document.

    The matrix is canonical (sorted indices, no duplicates). Out-of-vocabulary
    tokens are dropped, so a document with no known term is an empty row.
    Each row's norm sums its squared weights in ascending term order, as a
    per-document loop would, so a row does not depend on the other documents.
    """
    n, dim = len(docs), len(model.vocabulary)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, (d.tokens for d in docs)), np.int64, n), out=bounds[1:])
    tokens = chain.from_iterable(d.tokens for d in docs)
    ids = np.fromiter(map(model.vocabulary.get, tokens, repeat(-1)), np.int32, bounds[-1])
    known = ids >= 0
    kept = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(known, out=kept[1:])
    indices = ids[known]
    # Duplicate (row, term) entries of 1.0 sum to the term counts.
    matrix = sparse.csr_matrix(
        (np.ones(len(indices)), indices, kept[bounds]), shape=(n, dim)
    )
    matrix.sum_duplicates()
    matrix.data *= model.idf[matrix.indices]
    squares = sparse.csr_matrix(
        (np.square(matrix.data), matrix.indices, matrix.indptr), shape=(n, dim)
    )
    norms = np.sqrt(squares @ np.ones(dim))
    matrix.data /= np.repeat(norms, np.diff(matrix.indptr))
    return matrix


def cosine(
    matrix: sparse.csr_matrix, rows_a: Sequence[int], rows_b: Sequence[int]
) -> np.ndarray:
    """Cosine similarity of rows `rows_a[k]` and `rows_b[k]` of a `vectorize`
    matrix, for every k.

    Rows are unit vectors, so this is their dot product, summed over shared
    terms in ascending term order. The result is bit-for-bit symmetric in
    its two row arguments.
    """
    a = np.asarray(rows_a, dtype=np.intp)
    b = np.asarray(rows_b, dtype=np.intp)
    products = matrix[a].multiply(matrix[b])
    return products @ np.ones(matrix.shape[1])


def _threshold_join(
    matrix: sparse.csr_matrix, threshold: float
) -> list[tuple[int, int, float]]:
    """All row pairs (i, j), i < j, of a `vectorize` matrix with dot product
    > threshold.

    The strict lower triangle of X X^T is computed exactly with
    scipy.sparse, one square tile of about `_TILE_ENTRIES` entries at a
    time, so memory does not grow with the window. Every pair is scored;
    nothing is pruned. A score sums the products of the two rows' shared
    terms in ascending term order, so it does not depend on the tiling or on
    argument order.
    """
    n = matrix.shape[0]
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
    eligible_docs = [docs[i] for i in eligible]
    model = fit_tfidf(eligible_docs, window.index)
    pairs = []
    for qpos, ppos, sim in _threshold_join(vectorize(model, eligible_docs), threshold):
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
