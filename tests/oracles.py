"""Independent oracles used to pin expected values.

Everything here computes results by a different route than the library:
dense numpy TFIDF and an all-pairs loop instead of a tiled sparse matrix
product, one untiled sparse product instead of the tiles and the norm
bound, one Python vector per document and a merge-loop dot product
instead of a TFIDF matrix built in one array pass, explicit shortest-path
enumeration instead of Brandes accumulation, the raw pairwise modularity sum
instead of the per-community aggregation.
"""

import math
from collections import Counter, deque

import numpy as np


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
