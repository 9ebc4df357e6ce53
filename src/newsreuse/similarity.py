"""Per-window TFIDF vectorization and exact all-pairs similarity search.

The matcher finds every cross-source article pair whose body cosine
similarity exceeds a threshold. Articles that carry one body byte for byte
share one span of the corpus's body spool, which ingest keys, and so one
row: `match_window` reads each distinct span of a window once, and fits,
vectorizes and joins one row per distinct body, each counted in the idf
once per copy. Fitting tokenizes, looks up and counts in one call,
`fit_tfidf`: the distinct bodies are read back from the spool and
tokenized one at a time, each token of a body long enough to match is
looked up once, into one array of term ids for the window, and the
window's term-count matrix is built from that array; no body's text or
tokens are kept after its lookup. `vectorize` weights the counts by idf and
L2-normalizes each row in place, so the counts become the window's
scipy.sparse CSR matrix. The fit holds at most two int32 arrays of one
entry per token at once, and frees both before the float64 counts are
made; the weighting and the join add about one 8-byte temporary per
entry beside the matrix; and their gathers index with the int32 arrays
themselves, not an intp copy. The window's peak is the largest of the
three steps' peaks, so a buffer cut from one step alone would leave it at
another's. Copies take no path of their own: they weight the idf's
column sums, and two copies score their row's sum of squares. The join is
exact. It filters, then verifies: pairs are filtered with an l2-norm
bound on a cut of the columns, those of highest document frequency, and
each tile's survivors are re-scored by `cosine` as it comes. How many
columns are cut is chosen per window by an estimate of the filter's cost;
where no cut pays for its fixed cost the cut is empty, and the filter is
the plain product less a rounding margin. `_norm_bound_join` says why no
pair is lost, whatever the cut. Every kept score is `cosine`'s, one row
sum in ascending term order, `_row_sums`. Output ordering and scores are
deterministic.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain, combinations, count, product
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from .corpus import MatchedPair, TimeWindow, pair_articles

# Product entries per tile of the exact join; bounds its working memory.
_TILE_ENTRIES = 1 << 16
# The norm-bound join weighs the cuts of the columns with df >= n / 16,
# n / 32, ..., and of the top i / 16 of the columns by df; a window of at
# most 16 documents takes the empty cut.
_CUT_STEPS = 16
# A non-empty cut's fixed cost per window over the empty cut's, in
# multiply-adds of the product: on windows of 100-200 documents drawn from
# the benchmark's many-sources corpus, a cut and the plain product broke
# even near here.
_FILTER_COST = 1 << 16

# Word characters minus underscore: punctuation splits tokens, numerals stay.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same split for ASCII text, as a `bytes.translate` table: every ASCII
# byte that is not a letter or digit becomes a space.
_ASCII_SPLIT = bytes(c if chr(c).isalnum() else 32 for c in range(128)) + bytes(range(128, 256))


def tokenize(text: str) -> list[str]:
    """Lowercased Unicode word tokens; punctuation dropped, no stemming.

    A token is a maximal run of letters and digits (`_TOKEN_RE`), so `_` and
    every other punctuation mark or space splits tokens. Text that is ASCII
    once lowered is encoded, mapped through the 256-byte table
    `_ASCII_SPLIT` and split at the spaces, which gives the same tokens as
    the regex, faster. The test comes after lowering: U+212A KELVIN SIGN
    lowers to ASCII `k`.
    """
    low = text.lower()
    if low.isascii():
        return low.encode("ascii").translate(_ASCII_SPLIT).decode("ascii").split()
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
    `vocabulary` lists the terms in sorted order, so `vocabulary[column]` is
    the term of that column; `idf[column]` is the smoothed idf of that term;
    `row_df[column]` counts the fitted texts that hold it, each once,
    whatever its multiplicity; `counts` is the canonical CSR matrix of term
    counts, one row per fitted text, in their order, until `vectorize`
    weights it in place.
    """

    rows: list[int]
    vocabulary: list[str]
    idf: np.ndarray
    row_df: np.ndarray
    counts: sparse.csr_matrix


def fit_tfidf(
    texts: Iterable[str], min_tokens: int, multiplicity: Sequence[int] | None = None
) -> TfidfModel:
    """Fit vocabulary, term counts and idf = log((1 + n) / (1 + df)) + 1 on
    the texts of at least `min_tokens` tokens.

    Text k stands for `multiplicity[k]` documents that hold it, or for one
    when `multiplicity` is None. n sums the multiplicities of the kept
    texts, and a term's df those of the kept texts that hold it. Both are
    exact integer counts, so each row has the bits it would have if each of
    its documents were its own row.

    One pass tokenizes each text and looks each token of a kept text up
    once, into one array of term ids numbered by first appearance; no
    text's tokens are kept, so fed by a generator it holds one text at a
    time. A shorter text never enters the vocabulary. The terms are then
    sorted, and each token's id is mapped to its column, the term's rank in
    sorted order. A text with no tokens is an empty row and still counts in
    n. The idf values come from a table indexed by document frequency,
    built with `math.log` (n + 1 calls, not one per term), so they are the
    same bits as the per-term formula.

    At most two arrays of one entry per token are held at once: the term
    ids and the columns gathered from them, then the columns and the ones
    that `sum_duplicates` adds up. Both are freed before the float64 counts
    are made. The columns are gathered with the int32 ids themselves, not
    an intp copy of them, once the first-appearance map is freed. Both dfs
    are products of the transposed int32 counts, set to ones, with an int32
    vector: of ones for `row_df`, of the multiplicities for the idf's. So
    no per-entry temporary is made beyond the float64 counts.
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
            # A list, then one copy: faster than extending the array from the map.
            ids.fromlist(list(map(lookup, tokens)))
            bounds.append(len(ids))
    # The last body is not kept either; with no texts, the names are unbound.
    tokens = text = None
    terms = list(first)
    del first, lookup
    width = len(terms)
    order = sorted(range(width), key=terms.__getitem__)
    vocabulary = list(map(terms.__getitem__, order))
    rank = np.empty(width, dtype=np.intc)
    rank[order] = np.arange(width, dtype=np.intc)
    del terms, order
    # Indexing with the int32 ids themselves: `np.take` would cast them to intp.
    columns = rank[np.frombuffer(ids, dtype=np.intc)]
    del ids
    # Duplicate (row, term) entries of 1 sum to the term counts, which are
    # exact in float64.
    ones = np.ones(len(columns), dtype=np.intc)
    counts = sparse.csr_matrix((ones, columns, bounds), shape=(len(rows), width))
    del ones, columns
    counts.sum_duplicates()
    # The summed indices and counts may still be views of the per-token
    # arrays: the copy frees one before the float64 counts are made.
    counts.indices = counts.indices.copy()
    pattern = counts.T
    counts.data = counts.data.astype(np.float64)
    # The transpose keeps the int32 counts, which become the pattern.
    pattern.data.fill(1)
    ones = np.ones(len(rows), np.intc)
    copies = ones if multiplicity is None else np.asarray(multiplicity, np.intc)[rows]
    # The cut chooser squares row_df, which could overflow int32.
    df, row_df = pattern @ copies, (pattern @ ones).astype(np.intp)
    del pattern
    n = int(copies.sum())
    idf_by_df = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in range(n + 1)])
    return TfidfModel(
        rows=rows, vocabulary=vocabulary, idf=idf_by_df[df], row_df=row_df, counts=counts
    )


def vectorize(model: TfidfModel) -> sparse.csr_matrix:
    """The TFIDF matrix of the fitted texts: one L2-normalized tf * idf
    row per text, canonical (sorted indices, no duplicates).

    It consumes the model's counts: `model.counts` is weighted in place and
    returned, so no second matrix of the window's size is made, and the
    model's counts are the TFIDF matrix afterwards. A text with no tokens
    is an empty row. Each row's norm sums its squared weights in ascending
    term order, as a per-document loop would, so a row does not depend on
    the other documents.
    """
    matrix = model.counts
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
    matrix: sparse.csr_matrix, threshold: float, df: np.ndarray
) -> list[tuple[int, int, float]]:
    """All row pairs (i, j), i < j, of a `vectorize` matrix with dot product
    > threshold, in no particular order: `_norm_bound_join` at the cut that
    `_cheapest_cut` chooses.

    Every score is `cosine`'s, the products of the two rows' shared terms
    summed in ascending term order, so it does not depend on the tiling, on
    argument order or on the cut. `df` is each column's count of rows that
    hold it, as `fit_tfidf`'s `row_df`.
    """
    return _norm_bound_join(matrix, threshold, *_cheapest_cut(matrix, threshold, df))


def _empty_cut(matrix: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The cut of no column, so every row's cut-part norm is zero."""
    return np.zeros(matrix.shape[1], dtype=bool), np.zeros(matrix.shape[0])


def _cheapest_cut(
    matrix: sparse.csr_matrix, threshold: float, df: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cheapest cut's columns, as a flag per column, and each row's l2
    norm over them; the empty cut when no other beats it by more than
    `_FILTER_COST`, or the window has at most `_CUT_STEPS` rows.

    Columns are ranked by descending df, ties by column index, and a cut is
    a prefix of that ranking. The ladder of cuts holds the columns with
    df >= n / 16, n / 32, n / 64, ... and the top i / 16 of the columns, for
    i = 1 .. 15, less the empty cut and the cut of every column. The first
    kind fits a skewed vocabulary, whose few frequent columns carry most of
    sum(df^2); the second a flat one, where each df threshold cuts almost
    no column or almost all of them.

    Each cut is costed as the multiply-adds of `_norm_bound_join`'s two
    products: sum(df^2) over the columns left, for the filter, plus
    sum(df^2) within the heavy rows, those with f * max(f) > threshold for
    f their cut-part norm, which are joined among themselves. The empty
    cut costs sum(df^2), the whole product, and has no heavy rows. A larger
    cut shrinks the first and, as more rows turn heavy, grows the second;
    the cheapest cut wins, the smallest on a tie. The cut-part norms of
    every cut come from one pass over the entries. Any cut gives the same
    pairs, so the estimate only decides the speed.

    The df here counts the rows of `matrix`, which are what the join
    multiplies: in `match_window`, one row per distinct body. That is
    `fit_tfidf`'s `row_df`, which `match_window` passes in. The idf's df in
    `fit_tfidf` counts each row once per copy of its body, so the two
    differ where a window holds copies, and the idf's cannot stand in for
    this one.
    """
    n, width = matrix.shape
    square = df * df
    total = int(square.sum())
    if n <= _CUT_STEPS or total <= _FILTER_COST:
        return _empty_cut(matrix)
    # A stable sort of n - df in the narrowest type that holds n: a radix
    # sort while n < 2^16.
    order = np.argsort((n - df).astype(np.min_scalar_type(n)), kind="stable")
    ranked = df[order]
    sizes = {step * width // _CUT_STEPS for step in range(1, _CUT_STEPS)}
    divisor = _CUT_STEPS
    while divisor < n:
        sizes.add(int(np.count_nonzero(ranked * divisor >= n)))
        divisor *= 2
    ends = np.array(sorted(size for size in sizes if 0 < size < width), dtype=np.intp)
    # level[c] counts the cuts that leave column c out, so column c is cut
    # at cut k when level[c] <= k.
    level = np.empty(width, dtype=np.intc)
    level[order] = np.repeat(
        np.arange(len(ends) + 1, dtype=np.intc), np.diff(ends, prepend=0, append=width)
    )
    rest_cost = total - np.cumsum(square[order])[ends - 1]
    # Each row's squared weights summed per column level, then over levels
    # <= k: norms[:, k] are the norms over cut k. Summed a tile's rows at a
    # time, so no temporary spans every entry.
    side = max(1, math.isqrt(_TILE_ENTRIES))
    by_level = np.empty((n, len(ends) + 1))
    for lo in range(0, n, side):
        hi = min(lo + side, n)
        start, stop = matrix.indptr[lo], matrix.indptr[hi]
        by_level[lo:hi] = sparse.csr_matrix(
            (
                np.square(matrix.data[start:stop]),
                level[matrix.indices[start:stop]],
                matrix.indptr[lo : hi + 1] - start,
            ),
            shape=(hi - lo, len(ends) + 1),
        ).toarray()
    np.sqrt(np.cumsum(by_level, axis=1, out=by_level), out=by_level)
    norms = by_level[:, :-1]
    tops = norms.max(axis=0)
    row_sizes = np.diff(matrix.indptr)
    best, best_cost = None, total - _FILTER_COST
    for cut, rest in enumerate(rest_cost.tolist()):
        heavy = norms[:, cut] * tops[cut] > threshold
        light = n - int(np.count_nonzero(heavy))
        heavy_cost = 0
        if light < n:
            # A larger cut keeps every heavy row heavy, so their join only
            # grows: stop once it alone costs the best.
            in_heavy = np.repeat(heavy, row_sizes)
            heavy_cost = int(np.square(np.bincount(matrix.indices[in_heavy])).sum())
            if heavy_cost >= best_cost:
                break
        if rest + heavy_cost < best_cost:
            best, best_cost = cut, rest + heavy_cost
    if best is None:
        return _empty_cut(matrix)
    return level <= best, np.ascontiguousarray(norms[:, best])


def _norm_bound_join(
    matrix: sparse.csr_matrix, threshold: float, cut: np.ndarray, norms: np.ndarray
) -> list[tuple[int, int, float]]:
    """`_threshold_join` by filtering with an l2-norm bound, then re-scoring.

    Split each row x into its cut part x_C (its stored entries in the
    columns where `cut` holds) and its rest x_R, and let R be the matrix of
    the rests; `norms` holds each |x_C|, as a computed sum of squares in
    any order, then sqrt. By Cauchy-Schwarz, x.y <= x_R.y_R + |x_C| |y_C|:
    this is the l2-norm bound of L2AP (Anastasiu and Karypis, ICDE 2014),
    used as the filter of a filter-then-verify join (Bayardo, Ma and
    Srikant, WWW 2007). With the empty cut, R is the matrix itself, every
    norm is zero, and the filter is the whole product less a margin.

    - Filter. `_tiles` walks R R^T with f, the cut-part norms, and yields
      the candidates: the pairs with R_ij + f_i f_j > threshold - margin.
    - No overlap in R. A pair that shares no term outside the cut is not
      in R R^T. It scores above the threshold only if it shares a cut
      term, so that both its f are > 0, and only if f_i f_max and f_j f_max
      both pass; the rows that pass are joined among themselves by this
      function with the empty cut. The empty cut leaves no such row. A
      body made only of frequent terms is heavy under any cut that holds
      them, so joining heavy rows apart keeps one such body from capping its
      whole window's cut.
    - Re-score. Each tile's candidates are scored by `cosine` as the tile
      comes, and kept when that score is > threshold: as many pairs at a
      time as a tile has rows, at most `_TILE_ENTRIES ** 0.5`, so it
      gathers as many rows as a tile's two operands, however many pass.

    Margin. Every weight is >= 0, so each computed sum, in any order, is
    within a relative gamma_m = m u / (1 - m u) of its exact value, with
    u = 2^-53 and m the terms summed, at most k, the most terms in a row.
    A computed score s > t has an exact dot product d > t (1 - gamma_k). The
    filter's value carries at most gamma_k from R_ij, gamma_{k+1} from each
    f (sum of squares, then sqrt), and one rounding each for f_i f_j and for
    the sum, so it is at least d (1 - gamma_{2k+4}) > t - gamma_{3k+4}, as
    t < 1. The margin gamma_{3k+8} also covers the roundings of t - margin
    and of the per-tile cut. So no pair with s > t fails the filter, and the
    pairs kept are exactly those that `cosine` scores above t, whatever the
    cut. Rows need not have unit norm for this.
    """
    side = max(1, min(math.isqrt(_TILE_ENTRIES), matrix.shape[0]))
    terms = 3 * int(np.diff(matrix.indptr).max(initial=0)) + 8
    unit_roundoff = np.finfo(np.float64).eps / 2
    floor = threshold - terms * unit_roundoff / (1 - terms * unit_roundoff)

    # R keeps the columns outside the cut, renumbered in order, which
    # leaves R R^T as it is; with the empty cut it is the matrix itself.
    rest = matrix[:, ~cut] if cut.any() else matrix

    # A pair that shares no term scores 0, so a row of zero cut-part norm is
    # never heavy, even where the margin takes the floor below 0: the empty
    # cut has no heavy row.
    heavy = np.flatnonzero(norms * norms.max(initial=0.0) > max(floor, 0.0))
    out: list[tuple[int, int, float]] = []
    if len(heavy):
        ids = heavy.tolist()
        heavy_rows = matrix[heavy]
        joined = _norm_bound_join(heavy_rows, threshold, *_empty_cut(heavy_rows))
        out = [(ids[i], ids[j], s) for i, j, s in joined]
    is_heavy = np.zeros(matrix.shape[0], dtype=bool)
    is_heavy[heavy] = True

    for earlier, later in _tiles(rest, norms, floor):
        keep = ~(is_heavy[earlier] & is_heavy[later])
        earlier, later = earlier[keep], later[keep]
        for lo in range(0, len(earlier), side):
            rows_e, rows_l = earlier[lo : lo + side], later[lo : lo + side]
            scores = cosine(matrix, rows_e, rows_l)
            kept = scores > threshold
            out.extend(zip(rows_e[kept].tolist(), rows_l[kept].tolist(), scores[kept].tolist()))
    return out


def _tiles(
    rows: sparse.csr_matrix, norms: np.ndarray, floor: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (earlier, later), earlier < later, whose entry of
    rows rows^T plus norms[earlier] norms[later] is > floor, one tile at a
    time.

    The strict lower triangle is computed with scipy.sparse in square tiles
    of about `_TILE_ENTRIES` entries, so memory does not grow with the
    window; each block of earlier rows is transposed once. A first cut per
    tile, with the largest norm of its rows on each side in place of
    norms[earlier] norms[later], leaves few entries to check.
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
            keep = (earlier < later) & (tile.data[hits] + norms[earlier] * norms[later] > floor)
            yield earlier[keep], later[keep]


@dataclass(frozen=True)
class WindowMatchResult:
    eligible_count: int
    pairs: tuple[MatchedPair, ...]


def match_window(
    window: TimeWindow, *, threshold: float, min_body_tokens: int
) -> WindowMatchResult:
    """Fit a TFIDF model on one window and extract all cross-source matches.

    Articles that carry one body byte for byte share one spool span, and so
    one row: the articles are grouped by span, and each distinct body is
    read from the window's spool, tokenized and fitted once, with its
    copies as its multiplicity, so its row has the bits each copy's row
    would have. The join runs on the distinct rows, and each pair of rows
    it keeps stands for every cross-source pair of their copies. Two copies
    of one body score the row's sum of squares: `cosine`'s products of the
    row with itself, in its term order, so its bits. One body's text is
    held at a time, the vocabulary is freed before the counts are weighted
    in place, and the join takes the fit's df over the rows rather than
    counting it again.
    Bodies shorter than `min_body_tokens` tokens do not participate, and the
    eligible count counts articles. A window with fewer than two eligible
    articles has no pairs.
    Pairs are sorted by (similarity desc, earlier id, later id), a total
    order since ids are unique. Neither a pair nor its score depends on the
    order of the window's articles, so neither does the result.
    """
    articles = window.articles
    # The positions of the articles that carry each distinct body, by span.
    groups: dict[tuple[int, int] | None, list[int]] = {}
    for position, article in enumerate(articles):
        groups.setdefault(article.body_span, []).append(position)
    members = list(groups.values())
    model = fit_tfidf(map(window.spool.read, groups), min_body_tokens, [len(g) for g in members])
    members = [members[row] for row in model.rows]
    eligible = sum(map(len, members))
    if eligible < 2:
        return WindowMatchResult(eligible, ())
    # The join needs no terms, so they are freed before the weighting; the
    # weighted counts are the matrix, and the model goes with the idf.
    model = replace(model, vocabulary=[])
    df = model.row_df
    matrix = vectorize(model)
    del model
    repeated = [k for k, group in enumerate(members) if len(group) > 1]
    scores = _row_sums(matrix, np.square(matrix.data))[repeated].tolist()
    selves = [(k, k, sim) for k, sim in zip(repeated, scores) if sim > threshold]
    pairs = []
    for q, p, sim in chain(selves, _threshold_join(matrix, threshold, df)):
        grouped = combinations(members[q], 2) if q == p else product(members[q], members[p])
        for i, j in grouped:
            a, b = articles[i], articles[j]
            if a.source != b.source:
                pairs.append(pair_articles(a, b, sim, window.index))
    # Three stable sorts, least significant key first, give the order of
    # one sort by (-similarity, earlier id, later id), but make no object
    # per pair: each key is a field the pair already holds.
    pairs.sort(key=attrgetter("later.id"))
    pairs.sort(key=attrgetter("earlier.id"))
    pairs.sort(key=attrgetter("similarity"), reverse=True)
    return WindowMatchResult(eligible, tuple(pairs))
