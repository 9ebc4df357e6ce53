"""Per-window TFIDF vectorization and exact all-pairs similarity search.

The matcher finds every cross-source article pair whose body cosine
similarity exceeds a threshold. Fitting tokenizes, looks up and counts in
one call, `fit_tfidf`: a window's bodies are read back from the corpus's
body spool and tokenized one at a time, each token of a body long enough
to match is looked up once, into one array of term ids for the window, and
the window's term-count matrix is built from that array; no body's text or
tokens are kept after its lookup. `vectorize` weights the counts by idf and
L2-normalizes each row, one row per document in a single scipy.sparse CSR
matrix. The join is exact. Either
every pair is scored, as the lower triangle of that matrix times its
transpose, or, when a few terms are in almost every document, pairs are
first filtered with an l2-norm bound on the frequent terms and the
survivors re-scored. How many documents make a term frequent is chosen per
window by an estimate of the filter's cost; any choice gives the same
pairs. `_threshold_join` says when the bound is used and `_norm_bound_join`
why no pair is lost. Both walk their product through one tile loop,
`_tiles`, and every score is one row sum in ascending term order,
`_row_sums`, so both give the bits of the full product. Output ordering and
scores are deterministic.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from .corpus import MatchedPair, TimeWindow, pair_articles

# Product entries per tile of the exact join; bounds its working memory.
_TILE_ENTRIES = 1 << 16
# A column is frequent when at least 1/_FREQUENT_DF_DIVISOR of a window's
# documents hold it.
_FREQUENT_DF_DIVISOR = 16

# Word characters minus underscore: punctuation splits tokens, numerals stay.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same split for ASCII text: every ASCII character that is not a letter
# or digit becomes a space.
_ASCII_SPLIT = {c: " " for c in range(128) if not chr(c).isalnum()}


def tokenize(text: str) -> list[str]:
    """Lowercased Unicode word tokens; punctuation dropped, no stemming.

    A token is a maximal run of letters and digits (`_TOKEN_RE`), so `_` and
    every other punctuation mark or space splits tokens. Text that is ASCII
    once lowered is split with one `str.translate` and `str.split`, which
    give the same tokens as the regex, faster. The test comes after
    lowering: U+212A KELVIN SIGN lowers to ASCII `k`.
    """
    low = text.lower()
    if low.isascii():
        return low.translate(_ASCII_SPLIT).split()
    return _TOKEN_RE.findall(low)


# The benchmark's spans patch `from_text`, so `fit_tfidf` calls it through the class.
@dataclass(frozen=True)
class TokenizedDoc:
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, text: str) -> "TokenizedDoc":
        return cls(tuple(tokenize(text)))


@dataclass(frozen=True, eq=False)
class TfidfModel:
    """Vocabulary, idf weights and term counts of one fitted document set.

    `rows` are the positions of the fitted texts among those given;
    `vocabulary` maps each term to its rank in sorted order; `idf[i]` is the
    smoothed idf of the term with id i; `counts` is the canonical CSR matrix
    of term counts, one row per fitted document, in their order.
    """

    rows: list[int]
    vocabulary: dict[str, int]
    idf: np.ndarray
    counts: sparse.csr_matrix


def fit_tfidf(texts: Iterable[str], min_tokens: int) -> TfidfModel:
    """Fit vocabulary, term counts and idf = log((1 + n) / (1 + df)) + 1 on
    the texts of at least `min_tokens` tokens.

    One pass tokenizes each text and looks each token of a kept text up
    once, into one array of term ids numbered by first appearance; no
    text's tokens are kept, so fed by a generator it holds one text at a
    time. A shorter text never enters the vocabulary. The ids are then
    ranked in place, into the column of each token of the term-count
    matrix, and the document frequencies are its column counts. A document
    with no tokens is an empty row and still counts in n. The idf values
    come from a table indexed by document frequency, built with `math.log`
    (n + 1 calls, not one per term), so they are the same bits as the
    per-term formula.
    """
    rows: list[int] = []
    bounds = [0]
    ids = array("i")
    first: defaultdict[str, int] = defaultdict(count().__next__)
    lookup = first.__getitem__
    for row, text in enumerate(texts):
        tokens = TokenizedDoc.from_text(text).tokens
        if len(tokens) >= min_tokens:
            rows.append(row)
            ids.extend(map(lookup, tokens))
            bounds.append(len(ids))
    n = len(rows)
    terms = sorted(first)
    vocabulary = dict(zip(terms, range(len(terms))))
    rank = np.fromiter(map(vocabulary.__getitem__, first), np.intc, len(terms))
    columns = np.frombuffer(ids, dtype=np.intc)
    np.take(rank, columns, out=columns, mode="clip")
    # Duplicate (row, term) entries of 1 sum to the term counts, which are
    # exact in float64.
    ones = np.ones(len(columns), dtype=np.intc)
    counts = sparse.csr_matrix((ones, columns, bounds), shape=(n, len(terms)))
    counts.sum_duplicates()
    counts.data = counts.data.astype(np.float64)
    idf_by_df = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in range(n + 1)])
    df = np.bincount(counts.indices, minlength=len(terms))
    return TfidfModel(rows=rows, vocabulary=vocabulary, idf=idf_by_df[df], counts=counts)


def vectorize(model: TfidfModel) -> sparse.csr_matrix:
    """The TFIDF matrix of the fitted documents: one L2-normalized tf * idf
    row per document, canonical (sorted indices, no duplicates).

    A document with no tokens is an empty row. Each row's norm sums its
    squared weights in ascending term order, as a per-document loop would,
    so a row does not depend on the other documents.
    """
    matrix = model.counts.copy()
    matrix.data *= model.idf[matrix.indices]
    norms = np.sqrt(_row_sums(matrix, np.square(matrix.data)))
    matrix.data /= np.repeat(norms, np.diff(matrix.indptr))
    return matrix


def _row_sums(matrix: sparse.csr_matrix, data: np.ndarray) -> np.ndarray:
    """Per-row sums of `data`, one value per stored entry of the canonical
    CSR `matrix`, each summed in ascending term order."""
    rows = sparse.csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return rows @ np.ones(matrix.shape[1])


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
    return _row_sums(products, products.data)


def _threshold_join(
    matrix: sparse.csr_matrix, threshold: float
) -> list[tuple[int, int, float]]:
    """All row pairs (i, j), i < j, of a `vectorize` matrix with dot product
    > threshold, in no particular order.

    A score sums the products of the two rows' shared terms in ascending
    term order, so it does not depend on the tiling, on argument order, on
    the cut or on which of the two paths below found the pair: both give
    the bits of the plain product.

    When the columns that at least 1/16 of the rows hold carry at least half
    of sum(df^2), the multiply-adds of the plain product X X^T, most of that
    product is spent on a few terms, and the window goes to
    `_norm_bound_join`, which skips the frequent columns of the cut that
    `_frequent_cut` chooses. Otherwise the window goes to `_product_join`,
    which scores every pair.
    """
    cut = _frequent_cut(matrix, threshold)
    if cut is None:
        return _product_join(matrix, threshold)
    return _norm_bound_join(matrix, threshold, *cut)


def _frequent_cut(
    matrix: sparse.csr_matrix, threshold: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """At the cheapest cut, which stored entries of `matrix` are in frequent
    columns and each row's l2 norm over them; None when the columns with
    df >= n / 16 carry under half of sum(df^2) or every column is frequent
    (the gate of `_threshold_join`).

    With every column frequent, as in any window of 16 or fewer documents,
    no rare part is left and every row would pass the bound on its own.

    The cuts are df >= n / 16, n / 32, n / 64, ..., each while some column
    stays rare. Each is costed as the multiply-adds of `_norm_bound_join`'s
    two products: sum(df^2) over the rare columns, for the filter, plus
    sum(df^2) within the heavy rows, those with f * max(f) > threshold for
    f their frequent-part norm, which are joined among themselves. A lower
    cut shrinks the first and, as more rows turn heavy, grows the second;
    the cheapest cut wins, the highest on a tie. The frequent-part norms of
    every cut come from one pass over the entries. Any cut gives the same
    pairs, so the estimate only decides the speed.
    """
    n = matrix.shape[0]
    df = np.bincount(matrix.indices, minlength=matrix.shape[1]).astype(np.int64)
    frequent = df * _FREQUENT_DF_DIVISOR >= n
    square = df * df
    if frequent.all() or 2 * int(square[frequent].sum()) < int(square.sum()):
        return None
    # level[c] counts the cuts at which column c is rare, so column c is
    # frequent at cut k, df >= n / (16 * 2^k), when level[c] <= k.
    level = np.zeros(len(df), dtype=np.intc)
    divisor = _FREQUENT_DF_DIVISOR
    while divisor < n:
        level += df * divisor < n
        divisor *= 2
    cuts = int(level.max())
    rare_cost = square.sum() - np.cumsum(np.bincount(level, weights=square))
    # Each row's squared weights summed per column level, then over levels <= k.
    entry_level = np.take(level, matrix.indices, mode="clip")
    by_level = sparse.csr_matrix(
        (np.square(matrix.data), entry_level, matrix.indptr), shape=(n, cuts + 1)
    ).toarray()
    norms = np.sqrt(np.cumsum(by_level, axis=1))
    best, best_cost = 0, math.inf
    for cut in range(cuts):
        heavy = norms[:, cut] * norms[:, cut].max() > threshold
        # A lower cut keeps every heavy row heavy, so their join only grows:
        # stop once it alone costs the best. Each column holds at least
        # df - (n - heavy rows) of them, a bound that needs no pass over them.
        if np.square(np.maximum(df - (n - np.count_nonzero(heavy)), 0)).sum() >= best_cost:
            break
        heavy_cost = int(np.square(np.bincount(matrix[heavy].indices)).sum())
        if heavy_cost >= best_cost:
            break
        if rare_cost[cut] + heavy_cost < best_cost:
            best, best_cost = cut, rare_cost[cut] + heavy_cost
    return entry_level <= best, norms[:, best]


def _product_join(
    matrix: sparse.csr_matrix, threshold: float
) -> list[tuple[int, int, float]]:
    """`_threshold_join` by scoring every pair: the entries of `_tiles` with
    zero norms, which are those of X X^T above the threshold."""
    out: list[tuple[int, int, float]] = []
    for earlier, later, value in _tiles(matrix, np.zeros(matrix.shape[0]), threshold):
        out.extend(zip(earlier.tolist(), later.tolist(), value.tolist()))
    return out


def _norm_bound_join(
    matrix: sparse.csr_matrix, threshold: float, in_frequent: np.ndarray, norms: np.ndarray
) -> list[tuple[int, int, float]]:
    """`_threshold_join` by filtering with an l2-norm bound, then re-scoring.

    Split each row x into its frequent part x_F (its stored entries where
    `in_frequent` holds, all in a set of frequent columns) and its rare part
    x_R, and let R be the matrix of rare parts; `norms` holds each |x_F|, as
    a computed sum of squares in any order, then sqrt. By
    Cauchy-Schwarz, x.y <= x_R.y_R + |x_F| |y_F|: this is the l2-norm bound
    of L2AP (Anastasiu and Karypis, ICDE 2014), used as the filter of a
    filter-then-verify join (Bayardo, Ma and Srikant, WWW 2007).

    - Filter. `_tiles` walks R R^T with f, the frequent-part norms, and
      yields the candidates: the pairs with R_ij + f_i f_j > threshold -
      margin.
    - No rare overlap. A pair that shares no rare term is not in R R^T. It
      can pass only if f_i f_max and f_j f_max both pass, so the rows that
      pass are joined with `_product_join` among themselves.
    - Re-score. Each candidate is scored by `cosine`, which gives the bits of
      the plain product, and kept when that score is > threshold. This runs
      `_TILE_ENTRIES ** 0.5` pairs at a time, as many rows as a tile's two
      operands, however many candidates pass the filter.

    Margin. Every weight is >= 0, so each computed sum, in any order, is
    within a relative gamma_m = m u / (1 - m u) of its exact value, with
    u = 2^-53 and m the terms summed, at most k, the most terms in a row.
    A computed score s > t has an exact dot product d > t (1 - gamma_k). The
    filter's value carries at most gamma_k from R_ij, gamma_{k+1} from each
    f (sum of squares, then sqrt), and one rounding each for f_i f_j and for
    the sum, so it is at least d (1 - gamma_{2k+4}) > t - gamma_{3k+4}, as
    t < 1. The margin gamma_{3k+8} also covers the roundings of t - margin
    and of the per-tile cut. So no pair with s > t fails the filter, and the
    result equals `_product_join`'s. Rows need not have unit norm for this.
    """
    side = max(1, math.isqrt(_TILE_ENTRIES))
    terms = 3 * int(np.diff(matrix.indptr).max(initial=0)) + 8
    unit_roundoff = np.finfo(np.float64).eps / 2
    floor = threshold - terms * unit_roundoff / (1 - terms * unit_roundoff)

    # Every weight is > 0, so only the frequent entries become zeros.
    rare = matrix.copy()
    rare.data[in_frequent] = 0.0
    rare.eliminate_zeros()

    heavy = np.flatnonzero(norms * norms.max(initial=0.0) > floor)
    ids = heavy.tolist()
    out = [(ids[i], ids[j], s) for i, j, s in _product_join(matrix[heavy], threshold)]
    is_heavy = np.zeros(matrix.shape[0], dtype=bool)
    is_heavy[heavy] = True

    def rescore(earlier: np.ndarray, later: np.ndarray) -> None:
        for lo in range(0, len(earlier), side):
            rows_e, rows_l = earlier[lo : lo + side], later[lo : lo + side]
            scores = cosine(matrix, rows_e, rows_l)
            kept = scores > threshold
            out.extend(zip(rows_e[kept].tolist(), rows_l[kept].tolist(), scores[kept].tolist()))

    waiting: list[tuple[np.ndarray, np.ndarray]] = []
    held = 0
    for earlier, later, _ in _tiles(rare, norms, floor):
        keep = ~(is_heavy[earlier] & is_heavy[later])
        waiting.append((earlier[keep], later[keep]))
        held += int(np.count_nonzero(keep))
        if held >= side:
            rescore(*map(np.concatenate, zip(*waiting)))
            waiting, held = [], 0
    if held:
        rescore(*map(np.concatenate, zip(*waiting)))
    return out


def _tiles(
    rows: sparse.csr_matrix, norms: np.ndarray, floor: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The entries (earlier, later, value), earlier < later, of rows rows^T
    with value + norms[earlier] norms[later] > floor, one tile at a time.

    The strict lower triangle is computed exactly with scipy.sparse in
    square tiles of about `_TILE_ENTRIES` entries, so memory does not grow
    with the window; each block of earlier rows is transposed once. A first
    cut per tile, with the largest norm of its rows on each side in place of
    norms[earlier] norms[later], leaves few entries to check. Each value
    sums the products of the two rows' shared terms in the later row's
    ascending term order, so it has the bits of the untiled product.
    """
    n = rows.shape[0]
    side = max(1, math.isqrt(_TILE_ENTRIES))
    for earlier_lo in range(0, n, side):
        block = rows[earlier_lo : earlier_lo + side].T.tocsr()
        earlier_top = norms[earlier_lo : earlier_lo + side].max()
        for later_lo in range(earlier_lo, n, side):
            cut = floor - norms[later_lo : later_lo + side].max() * earlier_top
            tile = rows[later_lo : later_lo + side] @ block
            hits = np.flatnonzero(tile.data > cut)
            later = later_lo + np.searchsorted(tile.indptr, hits, side="right") - 1
            earlier = earlier_lo + tile.indices[hits]
            value = tile.data[hits]
            keep = (earlier < later) & (value + norms[earlier] * norms[later] > floor)
            yield earlier[keep], later[keep], value[keep]


@dataclass(frozen=True)
class WindowMatchResult:
    eligible_count: int
    pairs: tuple[MatchedPair, ...]


def match_window(
    window: TimeWindow, *, threshold: float, min_body_tokens: int
) -> WindowMatchResult:
    """Fit a TFIDF model on one window and extract all cross-source matches.

    Each body is read from the window's spool as it is tokenized, so one
    body's text is held at a time. Bodies shorter than `min_body_tokens`
    tokens do not participate. A window with fewer than two eligible
    documents has no pairs.
    Pairs are sorted by (similarity desc, earlier id, later id), a total
    order since ids are unique. Neither a pair nor its score depends on the
    order of the window's articles, so neither does the result.
    """
    articles = window.articles
    read = window.spool.read
    model = fit_tfidf((read(a.body_span) for a in articles), min_body_tokens)
    eligible = model.rows
    if len(eligible) < 2:
        return WindowMatchResult(len(eligible), ())
    matrix = vectorize(model)
    # The join needs neither the counts nor the vocabulary, so both are freed first.
    del model
    pairs = []
    for qpos, ppos, sim in _threshold_join(matrix, threshold):
        a, b = articles[eligible[qpos]], articles[eligible[ppos]]
        if a.source == b.source:
            continue
        pairs.append(pair_articles(a, b, sim, window.index))
    pairs.sort(key=lambda p: (-p.similarity, p.earlier.id, p.later.id))
    return WindowMatchResult(len(eligible), tuple(pairs))
