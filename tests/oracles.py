"""Independent oracles used to pin expected values.

Everything here computes results by a different route than the library:
dense numpy TFIDF and an all-pairs loop instead of a tiled sparse matrix
product, one untiled sparse product instead of the tiles and the norm
bound, one Python vector per document and a merge-loop dot product
instead of a TFIDF matrix built in one array pass, explicit shortest-path
enumeration instead of Brandes accumulation, the raw pairwise modularity sum
instead of the per-community aggregation.

The dict-based Brandes, the line-at-a-time GraphML and DOT writers and the
window matcher that fits one row per article are earlier versions of the
library's own, kept as they were so that the faster versions can be
required to give the same bits and bytes.
"""

import math
from array import array
from collections import Counter, defaultdict, deque
from itertools import count
from xml.sax.saxutils import escape, quoteattr

import numpy as np
from scipy import sparse

from newsreuse.corpus import pair_articles
from newsreuse.similarity import tokenize


def dense_tfidf_matrix(token_docs):
    """Dense row-normalized TFIDF matrix over tokenized documents."""
    vocab = sorted({t for doc in token_docs for t in doc})
    index = {t: i for i, t in enumerate(vocab)}
    n = len(token_docs)
    tf = np.zeros((n, len(vocab)))
    for r, doc in enumerate(token_docs):
        for t, c in Counter(doc).items():
            tf[r, index[t]] = c
    df = (tf > 0).sum(axis=0)
    idf = np.log((1 + n) / (1 + df)) + 1.0
    m = tf * idf
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms, index


def exhaustive_pairs(token_docs, threshold):
    """Every (i, j, sim) with i < j and cosine > threshold, densely scored."""
    matrix, _ = dense_tfidf_matrix(token_docs)
    sims = matrix @ matrix.T
    out = []
    for i in range(len(token_docs)):
        for j in range(i + 1, len(token_docs)):
            if sims[i, j] > threshold:
                out.append((i, j, float(sims[i, j])))
    return out


def column_df(matrix):
    """Each column's count of the rows of CSR `matrix` that hold it: the
    `df` that `match_window` hands the join as `fit_tfidf`'s `row_df`."""
    return np.bincount(matrix.indices, minlength=matrix.shape[1])


def product_pairs(matrix, threshold):
    """Sorted (i, j, score), i < j, of the entries of one untiled sparse
    `matrix @ matrix.T` above the threshold.

    scipy sums each entry over the row of the left operand in stored order,
    as a tile of the join does, so the scores are the join's bits.
    """
    product = (matrix @ matrix.T).tocoo()
    keep = (product.col < product.row) & (product.data > threshold)
    return sorted(
        zip(product.col[keep].tolist(), product.row[keep].tolist(), product.data[keep].tolist())
    )


def article_fit(texts, min_tokens):
    """The library's earlier `fit_tfidf`, one row per text: kept rows, the
    vocabulary as a dict from term to its rank in sorted order, term-count
    matrix and idf per term."""
    rows = []
    bounds = [0]
    ids = array("i")
    first = defaultdict(count().__next__)
    for row, text in enumerate(texts):
        tokens = tokenize(text)
        if len(tokens) >= min_tokens:
            rows.append(row)
            ids.extend(map(first.__getitem__, tokens))
            bounds.append(len(ids))
    n = len(rows)
    terms = sorted(first)
    vocabulary = dict(zip(terms, range(len(terms))))
    rank = np.fromiter(map(vocabulary.__getitem__, first), np.intc, len(terms))
    columns = np.take(rank, np.frombuffer(ids, dtype=np.intc))
    ones = np.ones(len(columns), dtype=np.intc)
    counts = sparse.csr_matrix((ones, columns, bounds), shape=(n, len(terms)))
    counts.sum_duplicates()
    counts.data = counts.data.astype(np.float64)
    idf_by_df = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in range(n + 1)])
    idf = idf_by_df[np.bincount(counts.indices, minlength=len(terms))]
    return rows, vocabulary, counts, idf


def _article_vectors(counts, idf):
    """The library's `vectorize` of those counts."""
    matrix = counts.copy()
    matrix.data *= idf[matrix.indices]
    squares = sparse.csr_matrix(
        (np.square(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape
    )
    norms = np.sqrt(squares @ np.ones(matrix.shape[1]))
    matrix.data /= np.repeat(norms, np.diff(matrix.indptr))
    return matrix


def article_match_window(window, threshold, min_body_tokens):
    """(eligible count, sorted pairs) of the library's earlier `match_window`,
    which read, tokenized and fitted every article's body as its own row,
    copies included, and scored their pairs like any other. Its tiled join
    is replaced by `product_pairs`, which gives the join's bits. Each body
    is the `TextArticle`'s own text, not its spool span's, so a span shared
    by two different bodies gives other pairs than the library's."""
    articles = window.articles
    rows, _, counts, idf = article_fit((a.body for a in articles), min_body_tokens)
    if len(rows) < 2:
        return len(rows), ()
    pairs = []
    for q, p, sim in product_pairs(_article_vectors(counts, idf), threshold):
        a, b = articles[rows[q]], articles[rows[p]]
        if a.source != b.source:
            pairs.append(pair_articles(a, b, sim, window.index))
    pairs.sort(key=lambda p: (-p.similarity, p.earlier.id, p.later.id))
    return len(rows), tuple(pairs)


def reference_vectors(fit_docs, token_docs):
    """Vocabulary, idf list and one (indices, weights) vector per document.

    The model is fitted on `fit_docs` and applied to `token_docs`, one
    document at a time: idf by `math.log` per term, tf * idf weights in
    ascending term order, out-of-vocabulary terms dropped, and the norm
    summed sequentially in that order before dividing.
    """
    n = len(fit_docs)
    doc_freq = Counter(t for doc in fit_docs for t in set(doc))
    vocab = {t: i for i, t in enumerate(sorted(doc_freq))}
    idf = [math.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in sorted(doc_freq)]
    vectors = []
    for doc in token_docs:
        entries = sorted(
            (vocab[t], c * idf[vocab[t]]) for t, c in Counter(doc).items() if t in vocab
        )
        norm = math.sqrt(sum(w * w for _, w in entries))
        if norm == 0.0:
            vectors.append(([], []))
        else:
            vectors.append(([i for i, _ in entries], [w / norm for _, w in entries]))
    return vocab, idf, vectors


def merge_dot(u, v):
    """Dot product of two (indices, weights) vectors by a sorted merge."""
    (iu, wu), (iv, wv) = u, v
    i = j = 0
    acc = 0.0
    while i < len(iu) and j < len(iv):
        if iu[i] == iv[j]:
            acc += wu[i] * wv[j]
            i += 1
            j += 1
        elif iu[i] < iv[j]:
            i += 1
        else:
            j += 1
    return acc


def enumeration_betweenness(nodes, edges):
    """Directed unweighted betweenness by explicit path counting.

    BFS from every node gives distances and shortest-path counts; a node v
    lies on a shortest s-t path iff d(s,v) + d(v,t) == d(s,t), contributing
    sigma_sv * sigma_vt / sigma_st.
    """
    succ = {v: [] for v in nodes}
    for a, b in edges:
        succ[a].append(b)
    dist = {}
    count = {}
    for s in nodes:
        d = {s: 0}
        c = {s: 1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in succ[v]:
                if w not in d:
                    d[w] = d[v] + 1
                    c[w] = 0
                    queue.append(w)
                if d[w] == d[v] + 1:
                    c[w] += c[v]
        dist[s] = d
        count[s] = c
    cb = {v: 0.0 for v in nodes}
    for s in nodes:
        for t in nodes:
            if s == t or t not in dist[s]:
                continue
            for v in nodes:
                if v == s or v == t:
                    continue
                if (
                    v in dist[s]
                    and t in dist[v]
                    and dist[s][v] + dist[v][t] == dist[s][t]
                ):
                    cb[v] += count[s][v] * count[v][t] / count[s][t]
    return cb


def direct_modularity(edges, communities, resolution=1.0):
    """Q as the raw pairwise sum over the undirected weighted adjacency."""
    nodes = sorted(set(communities))
    weight = {}
    for a, b, w in edges:
        weight[(a, b)] = weight.get((a, b), 0.0) + w
        weight[(b, a)] = weight.get((b, a), 0.0) + w
    k = {v: sum(weight.get((v, u), 0.0) for u in nodes) for v in nodes}
    m2 = sum(k.values())
    if m2 == 0:
        return 0.0
    q = 0.0
    for u in nodes:
        for v in nodes:
            if communities[u] != communities[v]:
                continue
            q += weight.get((u, v), 0.0) - resolution * k[u] * k[v] / m2
    return q / m2


def _bfs_shortest_paths(succ, s):
    dist = {s: 0}
    sigma = {s: 1.0}
    preds = defaultdict(list)
    order = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        sv = sigma[v]
        for w in succ[v]:
            if w not in dist:
                dist[w] = dv + 1
                sigma[w] = 0.0
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
                preds[w].append(v)
    return order, sigma, preds


def dict_betweenness(graph):
    """Brandes's dependency accumulation over node names, with a dict for
    each of dist, sigma, preds and delta: the library's earlier version."""
    nodes = graph.nodes()
    cb = dict.fromkeys(nodes, 0.0)
    succ = {v: graph.successors(v) for v in nodes}
    for s in nodes:
        order, sigma, preds = _bfs_shortest_paths(succ, s)
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                cb[w] += delta[w]
    return cb


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _graphml_type(values):
    if any(isinstance(v, float) for v in values):
        return "double"
    if all(isinstance(v, int) for v in values):
        return "long"
    return "string"


def _graphml_value(value):
    if isinstance(value, float):
        return repr(value)
    return escape(str(value))


def line_graphml(graph, path):
    """GraphML built a line at a time, each name and value escaped where it
    is written: the library's earlier `export_graphml`."""
    attr_values = defaultdict(list)
    for node in graph.nodes():
        for name, value in graph.node_attrs(node).items():
            if value is not None:
                attr_values[name].append(value)
    node_keys = {name: f"n_{name}" for name in sorted(attr_values)}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"'
        ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
        ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
    ]
    for name in sorted(attr_values):
        kind = _graphml_type(attr_values[name])
        lines.append(
            f'  <key id="{node_keys[name]}" for="node" attr.name="{escape(name)}"'
            f' attr.type="{kind}"/>'
        )
    lines.append('  <key id="e_weight" for="edge" attr.name="weight" attr.type="long"/>')
    graph_id = (
        graph.window_index
        if isinstance(graph.window_index, str)
        else f"window_{graph.window_index}"
    )
    lines.append(f'  <graph id={quoteattr(str(graph_id))} edgedefault="directed">')
    for node in graph.nodes():
        attrs = graph.node_attrs(node)
        data = [
            f'      <data key="{node_keys[name]}">{_graphml_value(attrs[name])}</data>'
            for name in sorted(attrs)
            if attrs[name] is not None
        ]
        if data:
            lines.append(f"    <node id={quoteattr(node)}>")
            lines.extend(data)
            lines.append("    </node>")
        else:
            lines.append(f"    <node id={quoteattr(node)}/>")
    for frm, to, w in graph.edges():
        lines.append(
            f"    <edge source={quoteattr(frm)} target={quoteattr(to)}>"
            f'<data key="e_weight">{w}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    _write_lines(path, lines)


_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#c7c7c7", "#dbdb8d", "#9edae5",
]


def _dot_quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def line_dot(graph, path):
    """A Graphviz digraph built a line at a time, each name quoted where it
    is written: the library's earlier `export_dot`."""
    values = sorted(
        {
            graph.node_attrs(v)["community"]
            for v in graph.nodes()
            if graph.node_attrs(v).get("community") is not None
        },
        key=str,
    )
    color_of = {value: _PALETTE[i % len(_PALETTE)] for i, value in enumerate(values)}
    max_weight = max((w for _, _, w in graph.edges()), default=1)
    lines = ["digraph republishing {", "  node [shape=ellipse, style=filled];"]
    for node in graph.nodes():
        value = graph.node_attrs(node).get("community")
        color = color_of.get(value, "#ffffff")
        lines.append(f'  {_dot_quote(node)} [fillcolor="{color}"];')
    for frm, to, w in graph.edges():
        penwidth = max(0.5, 6.0 * w / max_weight)
        lines.append(
            f"  {_dot_quote(frm)} -> {_dot_quote(to)} "
            f'[weight={w}, penwidth={penwidth:.3f}, label="{w}"];'
        )
    lines.append("}")
    _write_lines(path, lines)
